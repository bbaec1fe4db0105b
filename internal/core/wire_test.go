package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"net"
	"testing"
	"testing/quick"
	"time"

	"dmpstream/internal/wire"
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
	h := make([]byte, wire.HeaderSize)
	copy(h[0:4], "DMPS")
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
	raw = append(raw, make([]byte, (wire.FrameHeaderSize+64)/2)...)
	if err := feedBytes(t, raw); err == nil {
		t.Fatal("truncated frame stream accepted")
	}
}

func TestReceiveEOFWithoutEndMarker(t *testing.T) {
	// Frames but no end marker: Receive should report the early close.
	raw := validHeader(16, 50)
	frame := make([]byte, wire.FrameHeaderSize+16)
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
		return err != nil || len(raw) >= wire.HeaderSize
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestReceiveSurfacesUpstreamLost: when an edge relay's feed dies, its hub
// answers late joins with an upstream-lost reject; the receiving client
// must surface it as a typed error matching both ErrRejected and
// ErrUpstreamLost all the way up through Receive.
func TestReceiveSurfacesUpstreamLost(t *testing.T) {
	var buf bytes.Buffer
	if err := wire.WriteReject(&buf, wire.RejectUpstreamLost); err != nil {
		t.Fatal(err)
	}
	err := feedBytes(t, buf.Bytes())
	if err == nil {
		t.Fatal("upstream-lost reject accepted as a stream")
	}
	if !errors.Is(err, wire.ErrRejected) || !errors.Is(err, wire.ErrUpstreamLost) {
		t.Fatalf("reject not typed through Receive: %v", err)
	}
}

// Property: a well-formed session round-trips regardless of packet count,
// payload size and rate.
func TestPropertySessionRoundTrip(t *testing.T) {
	f := func(countRaw, payloadRaw uint8) bool {
		count := int64(countRaw%40) + 1
		payload := int(payloadRaw) + 1
		srv, err := NewServer(wire.Config{Mu: 2000, PayloadSize: payload, Count: count})
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
