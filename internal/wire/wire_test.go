package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"net"
	"strings"
	"testing"
	"time"
)

func TestJoinRoundTrip(t *testing.T) {
	tok, err := NewToken()
	if err != nil {
		t.Fatal(err)
	}
	cConn, sConn := net.Pipe()
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
		if buf.Len() != HeaderSize {
			t.Fatalf("%s: reject frame is %d bytes, want %d", tc.code, buf.Len(), HeaderSize)
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

// TestConfigRateBounds pins the rates a Config accepts: finite, at least
// the header's unit of 1e-6 packets/s (below it µ encodes as 0, which
// every ReadStreamHeader refuses) and at most 1e9 packets/s (above it the
// generator's period rounds to 0 and it publishes without sleeping).
func TestConfigRateBounds(t *testing.T) {
	for _, tc := range []struct {
		mu float64
		ok bool
	}{
		{math.NaN(), false},
		{math.Inf(1), false},
		{math.Inf(-1), false},
		{0, false},
		{-5, false},
		{1e-300, false},
		{1e-7, false},
		{1e-6, true},
		{1, true},
		{250, true},
		{1e9, true},
		{1.000001e9, false},
		{2e9, false},
	} {
		cfg, err := Config{Mu: tc.mu}.Normalized()
		if (err == nil) != tc.ok {
			t.Errorf("µ = %v: error %v, want accepted %v", tc.mu, err, tc.ok)
			continue
		}
		if !tc.ok {
			continue
		}
		if period := time.Duration(float64(time.Second) / cfg.Mu); period < 1 {
			t.Errorf("µ = %v accepted with a generator period of %v", tc.mu, period)
		}
		var hdr bytes.Buffer
		if err := WriteStreamHeader(&hdr, 0, 1, cfg.PayloadSize, cfg.Mu); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ReadStreamHeader(&hdr); err != nil {
			t.Errorf("µ = %v accepted, but its stream header reads back as %v", tc.mu, err)
		}
	}
}

// TestPutFrameHeaderAllocFree: the frame header encode runs once per
// frame on every path of every stream.
func TestPutFrameHeaderAllocFree(t *testing.T) {
	frame := make([]byte, FrameHeaderSize+32)
	allocs := testing.AllocsPerRun(1000, func() {
		PutFrameHeader(frame, 7, 42)
	})
	if allocs != 0 {
		t.Errorf("PutFrameHeader allocates %.2f times per frame, want 0", allocs)
	}
}

// TestTokenStringOneAlloc: a stats snapshot renders every subscriber's
// token, so String is held to the string's own allocation — and to the
// lower-case hex form logs and clients already match on.
func TestTokenStringOneAlloc(t *testing.T) {
	tok := Token{0x00, 0x9f, 0xa0, 0xff, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	if got, want := tok.String(), "009fa0ff0102030405060708090a0b0c"; got != want {
		t.Fatalf("Token.String() = %q, want %q", got, want)
	}
	var s string
	if allocs := testing.AllocsPerRun(100, func() { s = tok.String() }); allocs > 1 {
		t.Errorf("Token.String allocates %.0f times, want 1", allocs)
	}
	_ = s
}
