package hub

import (
	"reflect"
	"testing"
)

// refRing is the resend record as a plain ring of wire numbers, one slot
// per sequence of the window: what path.remember and path.lastWritten must
// answer as, runs or spilled.
type refRing struct {
	first  int64
	recent []uint32
	wrote  int // sequences ever recorded; recent[wrote%len] is next to overwrite
}

func (r *refRing) remember(seqs []int64) {
	win := len(r.recent)
	if win == 0 {
		return
	}
	for _, seq := range seqs {
		r.recent[r.wrote%win] = uint32(seq - r.first)
		r.wrote++
	}
}

func (r *refRing) lastWritten() []int64 {
	n := min(r.wrote, len(r.recent))
	if n == 0 {
		return nil
	}
	out := make([]int64, 0, n)
	at := r.wrote % n // the oldest entry once the ring has wrapped, 0 before
	for i := 0; i < n; i++ {
		out = append(out, r.first+int64(r.recent[at]))
		if at++; at == n {
			at = 0
		}
	}
	return out
}

// FuzzResendRecord drives a path's resend record and the reference ring
// with the same batches — runs of consecutive sequences, skips ahead (a
// sibling path's stripe, a lag skip), out-of-order resends and jumps of
// about a full wire-number cycle — under every window from 0 to 64, and
// requires the same answer from both after every batch, with room to
// append the batch in hand.
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
		ref := &refRing{first: first, recent: make([]uint32, win)}
		cur := first + int64(start)
		var batch []int64
		for i := 0; i+1 < len(ops); i += 2 {
			kind, arg := ops[i]%4, int64(ops[i+1])
			batch = batch[:0]
			switch kind {
			case 0: // the next consecutive sequences
			case 1: // skip ahead first
				cur += 1 + arg
			case 2: // resend older sequences, then carry on from the cursor
				for seq := cur - 1 - arg>>3; seq < cur && len(batch) < 1+int(arg&7); seq++ {
					batch = append(batch, seq)
				}
			case 3: // about a full wire-number cycle ahead
				cur += 1<<32 - arg
			}
			for n := 1 + arg%writeBatchFrames; n > 0 && len(batch) < writeBatchFrames; n-- {
				batch = append(batch, cur)
				cur++
			}
			p.remember(batch, win)
			ref.remember(batch)
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
