package hub

import (
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"dmpstream/internal/wire"
)

// refRecord is the resend record as a plain log of every write: what
// path.remember and path.lastWritten must answer as, runs, spilled or with
// served resends kept apart. A write stays in the record until win new
// packets have followed it; a new packet counts itself.
type refRecord struct {
	first int64
	win   int
	log   []refWrite // oldest first
}

type refWrite struct {
	w      uint32 // the wire number, uint32(seq − first)
	resent bool
}

func (r *refRecord) remember(seqs []int64, resends int) {
	for i, seq := range seqs {
		r.log = append(r.log, refWrite{uint32(seq - r.first), i < resends})
	}
}

// lastWritten unrolls the record as path.lastWritten does: the new packets
// oldest first, then the served resends oldest first.
func (r *refRecord) lastWritten() []int64 {
	var news, resent []int64
	after := 0 // new packets written after the entry
	for i := len(r.log) - 1; i >= 0; i-- {
		e := r.log[i]
		if after >= r.win {
			break
		}
		seq := r.first + int64(e.w)
		if e.resent {
			resent = append([]int64{seq}, resent...)
			continue
		}
		news = append([]int64{seq}, news...)
		after++
	}
	if len(news)+len(resent) == 0 {
		return nil
	}
	return append(news, resent...)
}

// FuzzResendRecord drives a path's resend record and the reference log
// with the same batches — runs of consecutive sequences, skips ahead (a
// sibling path's stripe, a lag skip), served resends of older sequences
// and jumps of about a full wire-number cycle — under every window from 0
// to 64, and requires the same answer from both after every batch, with
// room to append the batch in hand.
func FuzzResendRecord(f *testing.F) {
	// ops is read in pairs: a kind, then its argument.
	f.Add(int64(0), uint32(0), uint8(64), []byte{0, 31, 0, 31, 0, 31})                   // one run, wrapped
	f.Add(int64(1000), uint32(0), uint8(8), []byte{0, 3, 1, 4, 0, 2, 1, 32, 0, 0})       // skips: two runs, then a spill
	f.Add(int64(0), uint32(1<<32-5), uint8(16), []byte{0, 9, 0, 9})                      // wire numbers wrap inside a run
	f.Add(int64(1<<40), uint32(7), uint8(5), []byte{0, 4, 2, 0x13, 0, 1, 2, 2, 0, 6})    // resends out of order
	f.Add(int64(-3), uint32(100), uint8(64), []byte{0, 1, 1, 1, 0, 1, 1, 1, 0, 1, 1, 1}) // striped: every other pair
	f.Add(int64(-3), uint32(100), uint8(3), []byte{0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0})  // gaps of one number, a small window
	f.Add(int64(50), uint32(1), uint8(0), []byte{0, 5, 1, 5})                            // resends disabled
	f.Add(int64(9), uint32(2), uint8(4), []byte{0, 2, 3, 7, 0, 3, 3, 0, 0, 8})           // jumps of about a wire cycle
	f.Fuzz(func(t *testing.T, first int64, start uint32, window uint8, ops []byte) {
		if len(ops) > 128 {
			ops = ops[:128]
		}
		win := int(window) % (DefaultResendWindow + 1)
		p := &path{sub: &subscriber{first: first}}
		ref := &refRecord{first: first, win: win}
		cur := first + int64(start)
		var batch []int64
		for i := 0; i+1 < len(ops); i += 2 {
			kind, arg := ops[i]%4, int64(ops[i+1])
			batch = batch[:0]
			resends := 0
			switch kind {
			case 0: // the next consecutive sequences
			case 1: // skip ahead first
				cur += 1 + arg
			case 2: // serve resends of older sequences, then carry on from the cursor
				for seq := cur - 1 - arg>>3; seq < cur && len(batch) < 1+int(arg&7); seq++ {
					batch = append(batch, seq)
				}
				resends = len(batch)
			case 3: // about a full wire-number cycle ahead
				cur += 1<<32 - arg
			}
			for n := 1 + arg%writeBatchFrames; n > 0 && len(batch) < writeBatchFrames; n-- {
				batch = append(batch, cur)
				cur++
			}
			p.remember(batch, resends, win)
			ref.remember(batch, resends)
			got, want := p.lastWritten(), ref.lastWritten()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("after batch %d (%v), window %d: the record unrolls to %v, the reference ring to %v", i/2, batch, win, got, want)
			}
			if got != nil && cap(got)-len(got) < writeBatchFrames {
				t.Fatalf("after batch %d: no room left to append the batch in hand", i/2)
			}
		}
	})
}

// TestResendBurstKeepsOwnWrites drives a subscriber's two paths by hand,
// one worker step at a time as shard.work takes them: path A writes 0–7,
// path B writes a full record's worth after them (8–23) and dies, A serves
// B's record as resends with 24–27 behind them, and then A dies too. A's
// own writes from before the burst were not followed by ResendWindow new
// packets, so they are still in its record and queued for the next path —
// a record counting the resends would have let the burst push them out.
func TestResendBurstKeepsOwnWrites(t *testing.T) {
	const win = 16
	h := newExternalHub(t, Config{LagWindow: 128, ResendWindow: win, Shards: 1, ReattachGrace: time.Minute})
	t.Cleanup(h.Close)
	sd := h.shards[0]
	sub := &subscriber{token: wire.Token{1}, shard: sd, window: 128}
	a := &path{sub: sub, conn: discardBuffers{}, started: true, owe: math.MaxInt64}
	b := &path{sub: sub, conn: discardBuffers{}, idx: 1, started: true, owe: math.MaxInt64}
	sd.mu.Lock()
	sd.registerLocked(sub)
	for _, p := range []*path{a, b} {
		// Held, as by a worker each, so that nothing here queues them.
		sub.links = append(sub.links, p)
		p.held = true
		sd.held.push(p)
		sd.live++
		h.pathConns.Add(1)
	}
	sd.mu.Unlock()
	publish := func(from, to int64) {
		for seq := from; seq < to; seq++ {
			h.PublishAt(seq, seq, make([]byte, h.cfg.Stream.PayloadSize))
		}
	}
	deliver := func(p *path, want int) {
		t.Helper()
		sd.mu.Lock()
		st, bt := sd.stepLocked(p)
		sd.mu.Unlock()
		if st != stepWrite || bt.n != want {
			t.Fatalf("path %d: step %d, want a write of %d frames", p.idx, st, want)
		}
		if err := h.writeBatch(p.conn, sub, bt); err != nil {
			t.Fatal(err)
		}
		h.releaseBatch(bt)
		p.remember(bt.seqs[:bt.n], int(bt.resends), win)
		sd.mu.Lock()
		sd.returnLocked(bt)
		sd.mu.Unlock()
	}
	die := func(p *path) { sd.finishPath(p, p.lastWritten(), errors.New("connection reset")) }

	publish(0, 8)
	deliver(a, 8)
	publish(8, 8+win)
	deliver(b, win)
	die(b)
	publish(8+win, 12+win)
	deliver(a, win+4) // b's record, then 24–27
	die(a)
	sd.mu.Lock()
	resend := append([]int64(nil), sub.resend...)
	sd.mu.Unlock()
	for seq := int64(0); seq < 12+win; seq++ {
		if !slices.Contains(resend, seq) {
			t.Fatalf("packet %d, written by a dead path, is not queued for resending: %v", seq, resend)
		}
	}
}
