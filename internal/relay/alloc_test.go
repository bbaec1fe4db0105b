// The relay's allocation gate: the forwarder's ingest — the reorder step,
// PublishAt and the reorder ring's recycling — must not allocate per packet,
// whether packets arrive in order or one of them parks. AllocsPerRun is
// unreliable under the race detector and the lockrank build's check
// allocates on every Lock, so the gate is built out of both.
//
//go:build !race && !lockrank

package relay

import "testing"

// TestForwarderIngestAllocFree drives 8-packet cycles through a one-path
// forwarder into its local hub, in order and with every 8th packet
// reordered, after two laps of the hub's ring have warmed its pool.
func TestForwarderIngestAllocFree(t *testing.T) {
	for _, reordered := range []bool{false, true} {
		f := newForwarderInto(t, Config{Paths: 1}, 256)
		payload := make([]byte, 256)
		seq := int64(0)
		for ; seq < 2*1024; seq += 8 {
			ingestCycle(f, seq, reordered, payload)
		}
		before := f.r.Stats()
		const runs = 500
		allocs := testing.AllocsPerRun(runs, func() {
			ingestCycle(f, seq, reordered, payload)
			seq += 8
		})
		st := f.r.Stats()
		if fwd := st.Forwarded - before.Forwarded; fwd != 8*(runs+1) || st.Held != 0 || st.Refused != 0 {
			t.Fatalf("reordered=%v: forwarded %d of %d packets, %d held, %d refused", reordered, fwd, 8*(runs+1), st.Held, st.Refused)
		}
		if reordered && st.Reordered-before.Reordered != runs+1 {
			t.Fatalf("%d packets parked over %d cycles, want one a cycle", st.Reordered-before.Reordered, runs+1)
		}
		if allocs != 0 {
			t.Errorf("reordered=%v: an 8-packet cycle allocates %.2f times, want 0", reordered, allocs)
		}
	}
}
