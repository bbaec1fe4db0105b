package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// feedBytes serves raw bytes to a Receive call over a real socket and
// reports whether Receive returned an error.
func feedBytes(t *testing.T, raw []byte) error {
	t.Helper()
	cConn, sConn := tcpPair(t)
	go func() {
		sConn.Write(raw)
		sConn.Close()
	}()
	done := make(chan error, 1)
	go func() {
		_, err := Receive([]net.Conn{cConn})
		done <- err
	}()
	select {
	case err := <-done:
		cConn.Close()
		return err
	case <-time.After(10 * time.Second):
		cConn.Close()
		t.Fatal("Receive hung on malformed input")
		return nil
	}
}

func validHeader(payload uint32, mu float64) []byte {
	h := make([]byte, headerSize)
	copy(h[0:4], magic[:])
	h[4] = 1
	binary.BigEndian.PutUint32(h[8:12], payload)
	binary.BigEndian.PutUint64(h[12:20], uint64(mu*1e6))
	return h
}

func TestReceiveRejectsTruncatedHeader(t *testing.T) {
	if err := feedBytes(t, []byte("DMPS")); err == nil {
		t.Fatal("truncated header accepted")
	}
}

func TestReceiveRejectsWrongVersion(t *testing.T) {
	h := validHeader(100, 50)
	h[4] = 9
	if err := feedBytes(t, h); err == nil {
		t.Fatal("future version accepted")
	}
}

func TestReceiveRejectsAbsurdPayloadSize(t *testing.T) {
	if err := feedBytes(t, validHeader(1<<25, 50)); err == nil {
		t.Fatal("oversized payload accepted")
	}
}

func TestReceiveRejectsZeroRate(t *testing.T) {
	if err := feedBytes(t, validHeader(100, 0)); err == nil {
		t.Fatal("zero rate accepted")
	}
}

func TestReceiveTruncatedFrameStream(t *testing.T) {
	// A valid header followed by half a frame must error, not hang or panic.
	raw := validHeader(64, 50)
	raw = append(raw, make([]byte, (frameHdr+64)/2)...)
	if err := feedBytes(t, raw); err == nil {
		t.Fatal("truncated frame stream accepted")
	}
}

func TestReceiveEOFWithoutEndMarker(t *testing.T) {
	// Frames but no end marker: Receive should report the early close.
	raw := validHeader(16, 50)
	frame := make([]byte, frameHdr+16)
	binary.BigEndian.PutUint32(frame[0:4], 0)
	raw = append(raw, frame...)
	if err := feedBytes(t, raw); err == nil {
		t.Fatal("missing end marker accepted")
	}
}

// Property: random garbage never panics Receive and never yields a
// zero-error success with implausible metadata.
func TestPropertyReceiveNeverPanicsOnGarbage(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		raw := make([]byte, int(n%2048))
		rng.Read(raw)
		err := feedBytes(t, raw)
		// Success is only acceptable if the random bytes happened to form a
		// valid session; with a random 4-byte magic that has probability
		// ~2^-32, so in practice err must be non-nil. Either way: no panic.
		return err != nil || len(raw) >= headerSize
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestJoinRoundTrip(t *testing.T) {
	tok, err := NewToken()
	if err != nil {
		t.Fatal(err)
	}
	cConn, sConn := tcpPair(t)
	defer cConn.Close()
	defer sConn.Close()
	want := Join{StreamID: "movie-night", Token: tok}
	go func() {
		if err := WriteJoin(cConn, want); err != nil {
			t.Error(err)
		}
	}()
	got, err := ReadJoin(sConn)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("join round trip: got %+v want %+v", got, want)
	}
}

// TestJoinFlagsRoundTrip pins the join flags field on the wire: an edge
// relay's absolute-numbering join (JoinFlagAbsolute) must arrive with the
// flag intact — losing it would silently rebase packet numbers at one
// tier and break packet identity across the relay tree — and unknown
// future flag bits must survive the trip too rather than being masked.
func TestJoinFlagsRoundTrip(t *testing.T) {
	tok, err := NewToken()
	if err != nil {
		t.Fatal(err)
	}
	for _, flags := range []uint8{0, JoinFlagAbsolute, 0x80, JoinFlagAbsolute | 0x40} {
		var buf bytes.Buffer
		want := Join{StreamID: "live", Token: tok, Flags: flags}
		if err := WriteJoin(&buf, want); err != nil {
			t.Fatalf("flags %#x: %v", flags, err)
		}
		got, err := ReadJoin(&buf)
		if err != nil {
			t.Fatalf("flags %#x: %v", flags, err)
		}
		if got != want {
			t.Fatalf("flags %#x changed on the wire: got %+v want %+v", flags, got, want)
		}
	}
}

func TestJoinRejectsOversizedStreamID(t *testing.T) {
	err := WriteJoin(io.Discard, Join{StreamID: "a-stream-id-longer-than-sixteen"})
	if err == nil {
		t.Fatal("oversized stream id accepted")
	}
}

// TestValidateStreamID pins the id rules shared by registry stream
// creation and the hub's configured id: the wire field is 16 NUL-padded
// bytes, so ids must fit, be non-empty and carry no interior NULs —
// anything else would alias distinct streams on the wire.
func TestValidateStreamID(t *testing.T) {
	for _, id := range []string{
		"a", "live", "movie-night", "straße",
		strings.Repeat("x", MaxStreamID),
	} {
		if err := ValidateStreamID(id); err != nil {
			t.Errorf("ValidateStreamID(%q) = %v, want nil", id, err)
		}
	}
	for _, id := range []string{
		"", strings.Repeat("x", MaxStreamID+1), "nul\x00led", "\x00",
	} {
		if err := ValidateStreamID(id); err == nil {
			t.Errorf("ValidateStreamID(%q) accepted", id)
		}
	}
	// Every id the validator accepts must survive the wire round trip
	// unchanged — the registry routes on byte equality of this field.
	for _, id := range []string{"a", strings.Repeat("x", MaxStreamID)} {
		var buf bytes.Buffer
		if err := WriteJoin(&buf, Join{StreamID: id}); err != nil {
			t.Fatalf("WriteJoin(%q): %v", id, err)
		}
		j, err := ReadJoin(&buf)
		if err != nil {
			t.Fatalf("ReadJoin(%q): %v", id, err)
		}
		if j.StreamID != id {
			t.Fatalf("stream id changed on the wire: %q != %q", j.StreamID, id)
		}
	}
}

func TestReadJoinRejectsGarbage(t *testing.T) {
	raw := make([]byte, joinSize)
	copy(raw, "NOPE")
	if _, err := ReadJoin(bytes.NewReader(raw)); err == nil {
		t.Fatal("bad join magic accepted")
	}
	wrongVer := make([]byte, joinSize)
	copy(wrongVer, joinMagic[:])
	wrongVer[4] = 7
	if _, err := ReadJoin(bytes.NewReader(wrongVer)); err == nil {
		t.Fatal("future join version accepted")
	}
	if _, err := ReadJoin(bytes.NewReader(raw[:10])); err == nil {
		t.Fatal("truncated join accepted")
	}
}

// TestRejectRoundTrip pins the reject frame: header-sized, typed on the
// client, unwrapping to both ErrRejected and the code-specific sentinel.
func TestRejectRoundTrip(t *testing.T) {
	cases := []struct {
		code RejectCode
		want error
	}{
		{RejectServerFull, ErrServerFull},
		{RejectUnknownStream, ErrUnknownStream},
		{RejectStreamEnded, ErrStreamOver},
		{RejectDraining, ErrDraining},
		{RejectEvicted, ErrEvicted},
		{RejectUpstreamLost, ErrUpstreamLost},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		if err := WriteReject(&buf, tc.code); err != nil {
			t.Fatal(err)
		}
		if buf.Len() != headerSize {
			t.Fatalf("%s: reject frame is %d bytes, want %d", tc.code, buf.Len(), headerSize)
		}
		_, _, err := ReadStreamHeader(&buf)
		if err == nil {
			t.Fatalf("%s: reject parsed as a stream header", tc.code)
		}
		if !errors.Is(err, ErrRejected) {
			t.Fatalf("%s: %v does not unwrap to ErrRejected", tc.code, err)
		}
		if !errors.Is(err, tc.want) {
			t.Fatalf("%s: %v does not unwrap to its sentinel", tc.code, err)
		}
		var rej *RejectError
		if !errors.As(err, &rej) || rej.Code != tc.code {
			t.Fatalf("%s: lost the code: %v", tc.code, err)
		}
	}
	// An unknown code still surfaces as a typed reject, just without a
	// specific sentinel — forward compatibility with future codes.
	var buf bytes.Buffer
	if err := WriteReject(&buf, RejectCode(99)); err != nil {
		t.Fatal(err)
	}
	_, _, err := ReadStreamHeader(&buf)
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("unknown code not typed: %v", err)
	}
	if errors.Is(err, ErrServerFull) {
		t.Fatal("unknown code matched a specific sentinel")
	}
}

// TestRejectFutureVersion: a reject frame from a future protocol version is
// an error, not a blindly trusted code.
func TestRejectFutureVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteReject(&buf, RejectServerFull); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[4] = 9
	_, _, err := ReadStreamHeader(bytes.NewReader(raw))
	if err == nil || errors.Is(err, ErrRejected) {
		t.Fatalf("future reject version accepted: %v", err)
	}
}

// TestReceiveSurfacesUpstreamLost: when an edge relay's feed dies, its hub
// answers late joins with an upstream-lost reject; the receiving client
// must surface it as a typed error matching both ErrRejected and
// ErrUpstreamLost all the way up through Receive.
func TestReceiveSurfacesUpstreamLost(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteReject(&buf, RejectUpstreamLost); err != nil {
		t.Fatal(err)
	}
	err := feedBytes(t, buf.Bytes())
	if err == nil {
		t.Fatal("upstream-lost reject accepted as a stream")
	}
	if !errors.Is(err, ErrRejected) || !errors.Is(err, ErrUpstreamLost) {
		t.Fatalf("reject not typed through Receive: %v", err)
	}
}

// Property: a well-formed session round-trips regardless of packet count,
// payload size and rate.
func TestPropertySessionRoundTrip(t *testing.T) {
	f := func(countRaw, payloadRaw uint8) bool {
		count := int64(countRaw%40) + 1
		payload := int(payloadRaw) + 1
		srv, err := NewServer(Config{Mu: 2000, PayloadSize: payload, Count: count})
		if err != nil {
			return false
		}
		cConn, sConn := tcpPair(t)
		go func() {
			srv.Serve([]net.Conn{sConn})
			sConn.Close()
		}()
		tr, err := Receive([]net.Conn{cConn})
		cConn.Close()
		if err != nil {
			return false
		}
		return tr.Expected == count && int64(len(tr.Arrivals)) == count &&
			tr.PayloadSize == payload
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkFrameCodec times the wire stage of every delivered frame: the
// sender's PutFrameHeader into a buffer it owns and the receiver's
// ParseFrameHeader of the same bytes. allocs/op must read 0 — a header is
// encoded and parsed once per frame on every path.
func BenchmarkFrameCodec(b *testing.B) {
	frame := make([]byte, FrameHeaderSize+1000)
	var sum int64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		PutFrameHeader(frame, uint32(i), int64(i)<<10)
		pkt, gen, err := ParseFrameHeader(frame)
		if err != nil || pkt != uint32(i) {
			b.Fatalf("round trip of packet %d: got %d, %v", i, pkt, err)
		}
		sum += gen
	}
	if sum == 1 {
		b.Log(sum) // keeps the parse live
	}
}
