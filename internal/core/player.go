package core

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// PlayerConfig drives real-time playout of a multipath stream.
type PlayerConfig struct {
	// StartupDelay is τ: playback of packet 0 begins this long after the
	// first packet arrives.
	StartupDelay time.Duration
	// OnPacket, if set, receives each packet's payload at its playback slot,
	// in packet-number order. The buffer is reused; copy to retain.
	OnPacket func(pkt uint32, payload []byte)
	// OnGlitch, if set, is called when a playback slot arrives and its
	// packet has not: the glitch the paper's late-packet metric stands for.
	OnGlitch func(pkt uint32)
	// EndGrace bounds how long a still-silent path may block Play after
	// another path delivered the end marker: the laggard gets a read deadline
	// and surfaces a timeout error instead of hanging Play forever. 0 selects
	// DefaultEndGrace; negative disables the guard.
	EndGrace time.Duration
}

// PlayerStats summarizes a live playout.
type PlayerStats struct {
	Played       int64 // slots played on time
	Glitches     int64 // slots whose packet was missing at playback time
	LateArrivals int64 // packets that arrived after their slot had passed
	Expected     int64 // packets the server generated
}

// GlitchFraction is the live equivalent of the paper's fraction of late
// packets.
func (ps PlayerStats) GlitchFraction() float64 {
	total := ps.Played + ps.Glitches
	if total == 0 {
		return 0
	}
	return float64(ps.Glitches) / float64(total)
}

// playFreeMax caps the playout buffer's free list. A sender writes up to
// sendBatch frames at once, so at pace that many slots play out between two
// bursts of arrivals and their buffers must wait for the next burst; more
// than that is the residue of a catch-up burst and goes back to the collector.
const playFreeMax = sendBatch

// playBuffer holds arrived payloads until their playback slot and recycles
// the buffers of played-out slots, so a stream at pace allocates nothing per
// packet. Not safe for concurrent use; Play guards it with its mutex.
type playBuffer struct {
	slots map[uint32][]byte
	free  [][]byte
}

// put copies payload into the slot for pkt unless the slot is already
// filled (a resend overlapping delivered content); the first copy stands.
func (b *playBuffer) put(pkt uint32, payload []byte) {
	if _, dup := b.slots[pkt]; dup {
		return
	}
	var data []byte
	if n := len(b.free); n > 0 {
		data, b.free = b.free[n-1], b.free[:n-1]
	}
	if cap(data) < len(payload) { // nothing to reuse, or a path with larger payloads
		data = make([]byte, len(payload))
	}
	data = data[:len(payload)]
	copy(data, payload)
	b.slots[pkt] = data
}

// take removes and returns the payload waiting in slot, if any.
func (b *playBuffer) take(slot uint32) ([]byte, bool) {
	data, ok := b.slots[slot]
	delete(b.slots, slot)
	return data, ok
}

// recycle hands a played-out buffer back for the next arrival.
func (b *playBuffer) recycle(data []byte) {
	if len(b.free) < playFreeMax {
		b.free = append(b.free, data)
	}
}

// Play consumes a DMP-streaming session from the given path connections and
// plays it back in real time with the configured startup delay. It blocks
// until the stream ends and every slot up to the last generated packet has
// been played or declared a glitch.
func Play(conns []net.Conn, cfg PlayerConfig) (PlayerStats, error) {
	if len(conns) == 0 {
		return PlayerStats{}, errors.New("core: no paths")
	}
	if cfg.StartupDelay <= 0 {
		return PlayerStats{}, errors.New("core: startup delay must be positive")
	}

	type sessionMeta struct {
		mu      float64
		payload int
	}
	metaCh := make(chan sessionMeta, len(conns))

	grace := cfg.EndGrace
	if grace == 0 {
		grace = DefaultEndGrace
	}

	var mu sync.Mutex
	buffer := playBuffer{slots: make(map[uint32][]byte)}
	var expected int64 = -1 // unknown until an end marker
	var lateArrivals int64
	played := uint32(0) // next slot to play (read under mu)
	endSeen := false    // guarded by mu
	active := make(map[net.Conn]struct{}, len(conns))
	for _, conn := range conns {
		active[conn] = struct{}{}
	}

	var readers sync.WaitGroup
	errs := make([]error, len(conns))
	for k, conn := range conns {
		readers.Add(1)
		go func(k int, conn net.Conn) {
			defer readers.Done()
			defer func() {
				mu.Lock()
				delete(active, conn)
				mu.Unlock()
			}()
			m, payload, err := readHeader(conn)
			if err != nil {
				errs[k] = err
				return
			}
			metaCh <- sessionMeta{mu: m, payload: payload}
			frame := make([]byte, frameHdr+payload)
			for {
				// Client-side read loop: bounded by the server's
				// end marker, and the caller owns/closes the connections on failure.
				if _, err := io.ReadFull(conn, frame); err != nil {
					errs[k] = fmt.Errorf("core: path %d read: %w", k, err)
					return
				}
				pkt, v, err := ParseFrameHeader(frame)
				if err != nil {
					errs[k] = fmt.Errorf("core: path %d: %w", k, err)
					return
				}
				if pkt == EndMarker {
					mu.Lock()
					if v > expected {
						expected = v
					}
					if !endSeen {
						endSeen = true
						// First end marker: a path still silent from here on
						// would block the final readers.Wait forever (a
						// blackholed link surfaces no read error), so bound
						// the stragglers with the grace deadline.
						if grace > 0 {
							dl := time.Now().Add(grace)
							for c := range active {
								if c != conn {
									c.SetReadDeadline(dl)
								}
							}
						}
					}
					mu.Unlock()
					return
				}
				mu.Lock()
				if pkt < played {
					lateArrivals++ // slot already passed; discard
				} else {
					buffer.put(pkt, frame[frameHdr:])
				}
				mu.Unlock()
			}
		}(k, conn)
	}

	done := make(chan struct{})
	go func() {
		readers.Wait()
		close(done)
	}()

	var meta sessionMeta
	select {
	case meta = <-metaCh:
	case <-done:
		// Every reader failed before producing a header.
		select {
		case meta = <-metaCh:
		default:
			return PlayerStats{}, errors.Join(append(errs, errors.New("core: no usable session header"))...)
		}
	}
	period := time.Duration(float64(time.Second) / meta.mu)

	var stats PlayerStats
	start := time.Now().Add(cfg.StartupDelay)
	for slot := uint32(0); ; slot++ {
		mu.Lock()
		exp := expected
		mu.Unlock()
		if exp >= 0 && int64(slot) >= exp {
			break
		}
		due := start.Add(time.Duration(slot) * period)
		if d := time.Until(due); d > 0 {
			select {
			case <-time.After(d):
			case <-done:
				// Paths all ended; if expected is known and reached, stop —
				// otherwise keep playing out buffered content on schedule.
				time.Sleep(time.Until(due))
			}
		}
		mu.Lock()
		data, ok := buffer.take(slot)
		played = slot + 1
		mu.Unlock()
		if ok {
			stats.Played++
			if cfg.OnPacket != nil {
				cfg.OnPacket(slot, data)
			}
			mu.Lock()
			buffer.recycle(data)
			mu.Unlock()
		} else {
			stats.Glitches++
			if cfg.OnGlitch != nil {
				cfg.OnGlitch(slot)
			}
		}
		// Safety: without an end marker (all paths failed), stop once the
		// buffer is drained and every reader has exited.
		if exp < 0 {
			select {
			case <-done:
				mu.Lock()
				empty := len(buffer.slots) == 0
				mu.Unlock()
				if empty {
					readers.Wait()
					mu.Lock()
					stats.Expected = int64(played)
					stats.LateArrivals = lateArrivals
					mu.Unlock()
					return stats, errors.Join(errs...)
				}
			default:
			}
		}
	}

	readers.Wait()
	mu.Lock()
	stats.Expected = expected
	stats.LateArrivals = lateArrivals
	mu.Unlock()
	return stats, errors.Join(errs...)
}
