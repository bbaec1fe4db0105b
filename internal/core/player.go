package core

import (
	"errors"
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
// been played or declared a glitch. A packet that arrives after its slot
// has passed counts as a late arrival only if the slot glitched; another
// copy of a packet that already played is a duplicate.
func Play(conns []net.Conn, cfg PlayerConfig) (PlayerStats, error) {
	if len(conns) == 0 {
		return PlayerStats{}, errors.New("core: no paths")
	}
	if cfg.StartupDelay <= 0 {
		return PlayerStats{}, errors.New("core: startup delay must be positive")
	}

	var mu sync.Mutex
	buffer := playBuffer{slots: make(map[uint32][]byte)}
	missed := make(map[uint32]struct{}) // guarded by mu; glitched slots whose packet has not come
	var lateArrivals int64              // guarded by mu
	played := uint32(0)                 // guarded by mu; next slot to play
	header := make(chan float64, 1)     // the first agreed header's µ
	pr := NewPathReader(cfg.EndGrace,
		func(m float64, _ int) error {
			select {
			case header <- m:
			default:
			}
			return nil
		},
		func(_ int, pkt uint32, _ int64, payload []byte) {
			mu.Lock()
			if pkt >= played {
				buffer.put(pkt, payload)
			} else if _, ok := missed[pkt]; ok {
				delete(missed, pkt)
				lateArrivals++ // slot already passed; discard
			}
			mu.Unlock()
		})

	var errs []error
	done := make(chan struct{}) // closed once every path's reader has returned
	go func() {
		errs = pr.RunAll(conns)
		close(done)
	}()

	var m float64
	select {
	case m = <-header:
	case <-done:
		// Every reader failed before producing a header.
		select {
		case m = <-header:
		default:
			return PlayerStats{}, errors.Join(append(errs, errors.New("core: no usable session header"))...)
		}
	}
	period := time.Duration(float64(time.Second) / m)

	var stats PlayerStats
	start := time.Now().Add(cfg.StartupDelay)
	var clock *time.Timer // the slot clock, reset for every slot; always drained
	for slot := uint32(0); ; slot++ {
		exp := pr.Expected()
		if exp >= 0 && int64(slot) >= exp {
			break
		}
		if d := time.Until(start.Add(time.Duration(slot) * period)); d > 0 {
			if clock == nil {
				clock = time.NewTimer(d)
			} else {
				clock.Reset(d)
			}
			<-clock.C
		}
		mu.Lock()
		data, ok := buffer.take(slot)
		if !ok {
			missed[slot] = struct{}{}
		}
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
				empty, late := len(buffer.slots) == 0, lateArrivals
				mu.Unlock()
				if empty {
					stats.Expected, stats.LateArrivals = int64(slot)+1, late
					return stats, errors.Join(errs...)
				}
			default:
			}
		}
	}

	<-done
	stats.Expected = pr.Expected()
	mu.Lock()
	stats.LateArrivals = lateArrivals
	mu.Unlock()
	return stats, errors.Join(errs...)
}
