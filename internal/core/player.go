package core

import (
	"errors"
	"math"
	"net"
	"sync"
	"time"
)

// PlayerConfig drives real-time playout of a multipath stream.
type PlayerConfig struct {
	// StartupDelay is τ: playback of packet 0 begins this long after the
	// first stream header arrives (the one every path must agree with).
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
	Early        int64 // packets that arrived past the hold span (holdSpan); dropped
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

// holdSpan is how many packets from the slot playing Play holds: at pace an
// arrival leads its slot by about µτ, plus its header's head start; 2τ + 1 s
// of playout (at most MaxSeqSpan packets) covers both, and one further ahead
// is bogus, so a frame numbered far ahead cannot make Play hold the gap.
func holdSpan(mu float64, tau time.Duration) int {
	return int(max(1, min(MaxSeqSpan, math.Ceil(mu*(2*tau.Seconds()+1)))))
}

// playout is Play's rule, a pure step (no lock, timer or conn) over one
// stream's events at explicit times, nanoseconds on the caller's clock. The
// first header starts the slot clock: slot s plays τ + s/µ after it. An
// arrival parks its packet until the slot's tick plays it; a tick with
// nothing parked glitches. A first arrival below the playhead is late, any
// other copy a duplicate. Fed its events in time order, with an arrival at
// its slot's very time before the tick, that is Trace.LateFraction's rule
// at τ + d0 on a CBR stream (d0: the header's arrival minus Gen_0).
type playout struct {
	tau, start, period int64       // slot s plays at start + s·period
	span               int64       // holdSpan of the header
	buf                *SeqRing    // what waits for its slot, in [next, next+span); nil until the header
	seen               PacketSet   // every arrival but the early ones: about a bit a packet
	next               uint32      // the next slot to play
	stats              PlayerStats // all but Expected, which result fills
}

// The answers of playout.arrive.
const (
	playParked = iota // waits for its slot
	playLate          // a first arrival too late for its slot, which glitched
	playDuplicate
	playEarly // holdSpan or more ahead of the next slot: dropped
)

// header starts the slot clock at the first header's arrival at and reports
// whether it did; a later path's header changes nothing.
func (p *playout) header(mu float64, at int64) bool {
	if p.buf != nil {
		return false
	}
	p.start, p.period = at+p.tau, int64(float64(time.Second)/mu)
	p.span = int64(holdSpan(mu, time.Duration(p.tau)))
	p.buf = NewSeqRing(int(p.span))
	return true
}

// arrive routes an arrival of packet pkt.
func (p *playout) arrive(pkt uint32, payload []byte) int {
	switch {
	case int64(pkt)-int64(p.next) >= p.span:
		p.stats.Early++
		return playEarly
	case !p.seen.Add(pkt):
		return playDuplicate
	case pkt < p.next:
		p.stats.LateArrivals++
		return playLate
	}
	p.buf.Put(int64(pkt), 0, payload)
	return playParked
}

// tick plays the next slot: its packet (ok), which the caller hands back to
// buf.Recycle when done, or a glitch.
func (p *playout) tick() (slot uint32, data []byte, ok bool) {
	slot = p.next
	if _, data, ok = p.buf.Take(int64(slot)); ok {
		p.stats.Played++
	} else {
		p.stats.Glitches++
	}
	p.next++
	return slot, data, ok
}

// due is the slot clock and the end rule: when the next slot plays, or over
// once every slot below the stream's count, expected, has played, or, with
// no end marker (expected < 0), once every path's reader has returned
// (closed) and nothing is left parked.
func (p *playout) due(expected int64, closed bool) (at int64, over bool) {
	if expected >= 0 {
		over = int64(p.next) >= expected
	} else {
		over = closed && p.buf.Len() == 0
	}
	return p.start + int64(p.next)*p.period, over
}

// result is what the playout counted; with no end marker the stream's count
// is the slots played.
func (p *playout) result(expected int64) PlayerStats {
	st := p.stats
	if st.Expected = expected; expected < 0 {
		st.Expected = int64(p.next)
	}
	return st
}

// Play consumes a DMP-streaming session from the given path connections and
// plays it back in real time with the configured startup delay. It blocks
// until the stream ends and every slot up to the last generated packet has
// been played or declared a glitch. A packet's first arrival after its slot
// has played is a late arrival, any other copy a duplicate, and a packet
// more than 2τ + 1 s of playout ahead of the slot playing is dropped as
// early. Play is playout's shell: the step's lock, its slot clock's timer,
// the reader.
func Play(conns []net.Conn, cfg PlayerConfig) (PlayerStats, error) {
	if len(conns) == 0 {
		return PlayerStats{}, errors.New("core: no paths")
	}
	if cfg.StartupDelay <= 0 {
		return PlayerStats{}, errors.New("core: startup delay must be positive")
	}

	var mu sync.Mutex
	p := &playout{tau: int64(cfg.StartupDelay)} // guarded by mu
	base := time.Now()                          // the step's clock reads time since base
	started := make(chan struct{})              // closed at the first agreed header
	pr := NewPathReader(cfg.EndGrace,
		func(m float64, _ int) error {
			mu.Lock()
			defer mu.Unlock()
			if p.header(m, int64(time.Since(base))) {
				close(started)
			}
			return nil
		},
		func(_ int, pkt uint32, _ int64, payload []byte) {
			mu.Lock()
			p.arrive(pkt, payload)
			mu.Unlock()
		})

	var errs []error
	done := make(chan struct{}) // closed once every path's reader has returned
	go func() {
		errs = pr.RunAll(conns)
		close(done)
	}()
	select {
	case <-started:
	case <-done:
		if p.buf == nil { // no reader is left to start the clock
			return PlayerStats{}, errors.Join(append(errs, errors.New("core: no usable session header"))...)
		}
	}

	clock := time.NewTimer(math.MaxInt64) // the slot clock, idle until the first Reset
	defer clock.Stop()
	for {
		closed := false // first: once every reader has returned, the count is final
		select {
		case <-done:
			closed = true
		default:
		}
		exp := pr.Expected()
		mu.Lock()
		at, over := p.due(exp, closed)
		mu.Unlock()
		if over {
			break
		}
		if d := time.Until(base.Add(time.Duration(at))); d > 0 {
			clock.Reset(d)
			<-clock.C
		}
		mu.Lock()
		slot, data, ok := p.tick()
		mu.Unlock()
		if ok {
			if cfg.OnPacket != nil {
				cfg.OnPacket(slot, data)
			}
			mu.Lock()
			p.buf.Recycle(data)
			mu.Unlock()
		} else if cfg.OnGlitch != nil {
			cfg.OnGlitch(slot)
		}
	}
	<-done // every reader has returned: p is the loop's alone
	return p.result(pr.Expected()), errors.Join(errs...)
}
