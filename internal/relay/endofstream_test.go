package relay

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"dmpstream/internal/core"
	"dmpstream/internal/wire"
)

// The end-of-stream contract of core.PathReader, held by each of its three
// consumers: core.Receiver, core.Play and the relay's forwarder.

const (
	eosMu      = 1000.0
	eosPayload = 8
	eosCount   = 8 // the larger end marker's count
)

// writePath writes one path as a server would: a stream header announcing
// mu, packets pkts and, when end >= 0, an end marker announcing end.
func writePath(t *testing.T, w net.Conn, mu float64, pkts []uint32, end int64) {
	t.Helper()
	if err := wire.WriteStreamHeader(w, 0, 1, eosPayload, mu); err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, wire.FrameHeaderSize+eosPayload)
	for _, pkt := range pkts {
		wire.PutFrameHeader(frame, pkt, time.Now().UnixNano())
		if _, err := w.Write(frame); err != nil {
			t.Fatal(err)
		}
	}
	if end >= 0 {
		wire.PutFrameHeader(frame, wire.EndMarker, end)
		if _, err := w.Write(frame); err != nil {
			t.Fatal(err)
		}
	}
}

// runAll reads conns into pr in the background; wait returns the paths'
// errors joined once every path has returned.
func runAll(pr *core.PathReader, conns []net.Conn) (wait func() error) {
	errc := make(chan error, 1)
	go func() { errc <- errors.Join(pr.RunAll(conns)...) }()
	return func() error { return <-errc }
}

// eosConsumer starts one consumer of a PathReader over conns with the given
// end grace. done closes when the stream is over for the consumer; wait
// blocks until every path has returned and reports the expected count and
// the paths' errors.
type eosConsumer func(t *testing.T, conns []net.Conn, grace time.Duration) (done <-chan struct{}, wait func() (int64, error))

// TestEndOfStream: path A ends the stream at 5 packets, path B carries more
// and ends it at 8, path C agrees on the header and then goes silent with
// its connection open, and path D announces another rate once the stream
// is over. For every consumer: Done closes on the first end marker without
// waiting for C; the expected count is the max over the end markers; C is
// released by the end-grace deadline; D is refused.
func TestEndOfStream(t *testing.T) {
	const grace = 400 * time.Millisecond
	for _, tc := range []struct {
		name  string
		start eosConsumer
	}{
		{"receiver", func(t *testing.T, conns []net.Conn, grace time.Duration) (<-chan struct{}, func() (int64, error)) {
			r := core.NewReceiver(core.ReceiverOptions{EndGrace: grace})
			wait := runAll(r.PathReader, conns)
			return r.Done(), func() (int64, error) {
				err := wait()
				return r.Trace().Expected, err
			}
		}},
		{"play", func(t *testing.T, conns []net.Conn, grace time.Duration) (<-chan struct{}, func() (int64, error)) {
			// Play has no Done: its slot clock stopping at the stream's
			// count is the stream being over for it.
			done := make(chan struct{})
			last := func(slot uint32) {
				if slot == eosCount-1 {
					close(done)
				}
			}
			var stats core.PlayerStats
			var err error
			returned := make(chan struct{})
			go func() {
				defer close(returned)
				stats, err = core.Play(conns, core.PlayerConfig{
					StartupDelay: 100 * time.Millisecond,
					EndGrace:     grace,
					OnPacket:     func(slot uint32, _ []byte) { last(slot) },
					OnGlitch:     last,
				})
			}()
			return done, func() (int64, error) {
				<-returned
				return stats.Expected, err
			}
		}},
		{"forwarder", func(t *testing.T, conns []net.Conn, grace time.Duration) (<-chan struct{}, func() (int64, error)) {
			r := testRelay(Config{StreamID: "eos", Paths: len(conns)})
			r.fwd = newForwarder(r, grace)
			t.Cleanup(func() {
				if h := r.local.Load(); h != nil {
					h.Close()
				}
			})
			// Through the redial engine, as the relay runs it (no redial).
			c := &core.Client{Paths: len(conns), Dial: func(k int) (net.Conn, error) { return conns[k], nil }}
			errc := make(chan error, 1)
			go func() { errc <- errors.Join(c.RunWith(r.fwd)...) }()
			return r.fwd.Done(), func() (int64, error) {
				err := <-errc
				return r.fwd.Expected(), err
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			clients, servers := make([]net.Conn, 4), make([]net.Conn, 4)
			for k := range clients {
				clients[k], servers[k] = net.Pipe()
				defer clients[k].Close()
				defer servers[k].Close()
			}
			done, wait := tc.start(t, clients, grace)
			writePath(t, servers[0], eosMu, []uint32{0, 1, 2, 3, 4}, 5)
			writePath(t, servers[1], eosMu, []uint32{5, 6, 7}, eosCount)
			writePath(t, servers[2], eosMu, nil, -1)
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("Done never closed after the end markers")
			}
			writePath(t, servers[3], eosMu/2, nil, -1)

			ended := time.Now()
			expected, err := wait()
			held := time.Since(ended)
			if expected != eosCount {
				t.Errorf("expected count %d, want the max over the end markers, %d", expected, eosCount)
			}
			var ne net.Error
			if !errors.As(err, &ne) || !ne.Timeout() {
				t.Errorf("silent path: %v, want the end-grace timeout", err)
			}
			if held < grace/2 || held > grace+3*time.Second {
				t.Errorf("the silent path held the consumer %v after Done; grace %v", held, grace)
			}
			if err == nil || !strings.Contains(err.Error(), "announces µ=500") {
				t.Errorf("a path announcing another rate was not refused: %v", err)
			}
		})
	}
}
