package wire

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// Native fuzz targets for the wire format: the hub accept loop feeds
// attacker-controlled bytes straight into ReadJoin and clients feed
// server bytes into ReadStreamHeader/ParseFrameHeader, so none of them may
// panic or overread, and every accepted value must round-trip.
//
// Run continuously with:
//
//	go test -fuzz=FuzzParseJoin -fuzztime=10s ./internal/wire

func FuzzParseJoin(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteJoin(&valid, Join{StreamID: "live", Token: Token{1, 2, 3}}); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	// Re-attach joins are byte-identical to first joins: the hub keys the
	// revived subscription purely on the token, so seed tokens that look
	// like session re-attach traffic (max-entropy, all-zero, and a repeat
	// of the same stream under a different token).
	var reattach bytes.Buffer
	if err := WriteJoin(&reattach, Join{StreamID: "live", Token: Token{
		0xde, 0xad, 0xbe, 0xef, 0xde, 0xad, 0xbe, 0xef,
		0xde, 0xad, 0xbe, 0xef, 0xde, 0xad, 0xbe, 0xef,
	}}); err != nil {
		f.Fatal(err)
	}
	f.Add(reattach.Bytes())
	var zeroTok bytes.Buffer
	if err := WriteJoin(&zeroTok, Join{StreamID: "flap", Token: Token{}}); err != nil {
		f.Fatal(err)
	}
	f.Add(zeroTok.Bytes())
	// An edge relay joins its upstream with the absolute-numbering flag set
	// (packet identity preserved across tiers); seed flagged joins so the
	// flags byte is always explored, including unknown future bits.
	for _, flags := range []uint8{JoinFlagAbsolute, 0xff} {
		var flagged bytes.Buffer
		if err := WriteJoin(&flagged, Join{
			StreamID: "live", Token: Token{0xed, 0x6e}, Flags: flags,
		}); err != nil {
			f.Fatal(err)
		}
		f.Add(flagged.Bytes())
	}
	// A registry serves many streams behind one accept loop and routes each
	// join by its stream id, so the parser sees a far wider id population
	// than a single hub ever did: short ids, ids at the 16-byte field limit,
	// multi-byte UTF-8, and near-collisions differing only in their suffix.
	for _, id := range []string{
		"a", "news", "sports", "music", "chaos-0", "chaos-1",
		"bench-0", "bench-31", "live2", "live\x01", "straße",
		strings.Repeat("x", MaxStreamID), strings.Repeat("x", MaxStreamID-1),
	} {
		var b bytes.Buffer
		if err := WriteJoin(&b, Join{StreamID: id, Token: Token{9, byte(len(id))}}); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
	}
	f.Add([]byte("DMPJ"))
	f.Add(bytes.Repeat([]byte{0xff}, 40))
	f.Add([]byte{})
	// A reject frame is server→client traffic; fed into the join parser it
	// must be cleanly refused (wrong magic), never crash or half-parse.
	var rej bytes.Buffer
	if err := WriteReject(&rej, RejectServerFull); err != nil {
		f.Fatal(err)
	}
	f.Add(rej.Bytes())
	f.Add(append(rej.Bytes(), bytes.Repeat([]byte{0}, joinSize-HeaderSize)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		j, err := ReadJoin(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted joins must be well-formed and round-trip exactly.
		if len(j.StreamID) > MaxStreamID {
			t.Fatalf("accepted oversized stream id %q", j.StreamID)
		}
		if strings.ContainsRune(j.StreamID, 0) {
			t.Fatalf("accepted stream id with embedded NUL %q", j.StreamID)
		}
		var buf bytes.Buffer
		if err := WriteJoin(&buf, j); err != nil {
			t.Fatalf("accepted join does not re-encode: %v", err)
		}
		j2, err := ReadJoin(&buf)
		if err != nil {
			t.Fatalf("re-encoded join does not parse: %v", err)
		}
		if j2 != j {
			t.Fatalf("round trip changed join: %+v != %+v", j2, j)
		}
	})
}

func FuzzParseHeader(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteStreamHeader(&valid, 0, 2, 1000, 50); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte("DMPS"))
	f.Add(bytes.Repeat([]byte{0xff}, 20))
	f.Add([]byte{})
	// Reject frames share the header parser: seed every defined code plus a
	// future one so the DMPR branch is always explored.
	for _, code := range []RejectCode{
		RejectServerFull, RejectUnknownStream, RejectStreamEnded,
		RejectDraining, RejectEvicted, RejectUpstreamLost, RejectCode(200),
	} {
		var rej bytes.Buffer
		if err := WriteReject(&rej, code); err != nil {
			f.Fatal(err)
		}
		f.Add(rej.Bytes())
	}
	f.Add([]byte("DMPR"))
	f.Fuzz(func(t *testing.T, data []byte) {
		mu, payload, err := ReadStreamHeader(bytes.NewReader(data))
		if err != nil {
			var rej *RejectError
			if errors.As(err, &rej) {
				// A parsed reject must be a well-formed frame: full header
				// size with our magic and version.
				if len(data) < HeaderSize || [4]byte(data[0:4]) != rejectMagic || data[4] != 1 {
					t.Fatalf("reject parsed from malformed input %x", data)
				}
				if !errors.Is(err, ErrRejected) {
					t.Fatalf("reject error not typed: %v", err)
				}
			}
			return
		}
		// The header guards every later frame-size allocation: accepted
		// values must be inside the validated envelope.
		if mu <= 0 {
			t.Fatalf("accepted non-positive rate %v", mu)
		}
		if payload < 0 || payload > 1<<20 {
			t.Fatalf("accepted out-of-range payload %d", payload)
		}
	})
}

func FuzzParseFrameHeader(f *testing.F) {
	frame := make([]byte, FrameHeaderSize+4)
	PutFrameHeader(frame, 7, 123456789)
	f.Add(frame)
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		pkt, gen, err := ParseFrameHeader(data)
		if err != nil {
			if len(data) >= FrameHeaderSize {
				t.Fatalf("rejected %d-byte frame: %v", len(data), err)
			}
			return
		}
		if len(data) < FrameHeaderSize {
			t.Fatalf("accepted %d-byte frame, need %d", len(data), FrameHeaderSize)
		}
		// Decode must agree with the encoder.
		buf := make([]byte, FrameHeaderSize)
		PutFrameHeader(buf, pkt, gen)
		if !bytes.Equal(buf, data[:FrameHeaderSize]) {
			t.Fatalf("re-encode mismatch: %x != %x", buf, data[:FrameHeaderSize])
		}
	})
}
