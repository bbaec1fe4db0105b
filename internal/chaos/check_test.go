package chaos

import (
	"testing"

	"dmpstream/internal/core"
	"dmpstream/internal/hub"
	"dmpstream/internal/relay"
)

// seq returns packets from..to-1, skipping the listed holes.
func seq(from, to uint32, holes ...uint32) []uint32 {
	var out []uint32
next:
	for p := from; p < to; p++ {
		for _, h := range holes {
			if p == h {
				continue next
			}
		}
		out = append(out, p)
	}
	return out
}

// TestVerdict feeds hand-built streams through a subscriber's payload check
// and the conservation verdict: each way of losing, duplicating or
// corrupting the stream is exactly one violation, and a conserved stream —
// rebased from its join point or absolute from its first packet — none.
func TestVerdict(t *testing.T) {
	for _, tc := range []struct {
		name     string
		absolute bool
		expected int64 // -1: no end marker
		pkts     []uint32
		corrupt  int // index of the packet delivered with one bad byte; -1 none
		slip     int // index of the packet carrying the next packet's payload; -1 none
		want     int
	}{
		{"conserved", false, 10, seq(0, 10), -1, -1, 0},
		{"duplicate packet", false, 10, append(seq(0, 10), 3), -1, -1, 1},
		{"gap", false, 10, seq(0, 10, 4), -1, -1, 1},
		{"packet at Expected", false, 10, seq(0, 11), -1, -1, 1},
		{"missing end marker", false, -1, seq(0, 10), -1, -1, 1},
		{"absolute join from MinPkt > 0", true, 10, seq(4, 10), -1, -1, 0},
		{"rebased join missing its first packets", false, 10, seq(4, 10), -1, -1, 1},
		{"absolute join with a gap", true, 10, seq(4, 10, 7), -1, -1, 1},
		{"one bad payload byte", false, 10, seq(0, 10), 6, -1, 1},
		{"payload of another packet", true, 10, seq(4, 10), -1, 2, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRunner(Config{})
			s := &sub{name: "sub", absolute: tc.absolute}
			base := uint32(1000) // a rebased join's join point in origin numbering
			if tc.absolute {
				base = 0
			}
			tr := &core.Trace{Expected: tc.expected}
			for i, p := range tc.pkts {
				tr.Arrivals = append(tr.Arrivals, core.Arrival{Pkt: p})
				buf := make([]byte, payload)
				abs := base + p
				if i == tc.slip {
					abs++
				}
				fill(abs, buf)
				if i == tc.corrupt {
					buf[20] ^= 0xff
				}
				s.onPacket(p, 0, buf)
			}
			v := r.verdict(s, outcome{tr: tr})
			if len(r.violations) != tc.want {
				t.Fatalf("violations %q, want %d (verdict %+v)", r.violations, tc.want, v)
			}
		})
	}
}

// TestCheckHub: each broken hub guarantee — any of the six monotone
// counters regressing, the byte budget overrun, the cap exceeded, pool
// integrity tripped — is exactly one violation against a snapshot that
// otherwise moved forward.
func TestCheckHub(t *testing.T) {
	prev := hub.Stats{Generated: 100, Sent: 190, Dropped: 5, Rejected: 3, Shed: 2, Evicted: 1, BytesHeld: 800, Subscribers: 3}
	counters := map[string]func(*hub.Stats) *int64{
		"Generated": func(s *hub.Stats) *int64 { return &s.Generated },
		"Sent":      func(s *hub.Stats) *int64 { return &s.Sent },
		"Dropped":   func(s *hub.Stats) *int64 { return &s.Dropped },
		"Rejected":  func(s *hub.Stats) *int64 { return &s.Rejected },
		"Shed":      func(s *hub.Stats) *int64 { return &s.Shed },
		"Evicted":   func(s *hub.Stats) *int64 { return &s.Evicted },
	}
	cases := map[string]func(*hub.Stats){
		"steady":         func(*hub.Stats) {},
		"budget overrun": func(s *hub.Stats) { s.BytesHeld = 1025 },
		"over the cap":   func(s *hub.Stats) { s.Subscribers = hubMaxSubs + 1 },
		"poison trip":    func(s *hub.Stats) { s.Pool.PoisonTrips = 1 },
		"double put":     func(s *hub.Stats) { s.Pool.DoublePuts = 1 },
	}
	for name, field := range counters {
		cases[name+" regressed"] = func(s *hub.Stats) { *field(s) = *field(&prev) - 1 }
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			r := newRunner(Config{})
			r.checkHub("stream x", prev, 1024, hubMaxSubs)
			next := prev
			for _, field := range counters {
				*field(&next) += 10
			}
			mutate(&next)
			r.checkHub("stream x", next, 1024, hubMaxSubs)
			want := 1
			if name == "steady" {
				want = 0
			}
			if len(r.violations) != want {
				t.Fatalf("violations %q, want %d", r.violations, want)
			}
		})
	}
}

// TestCheckRelayEpochs: a restarted relay's counters start from zero, which
// is no regression once the restart opened a new epoch — and is one (at
// the relay and at its hub) if it had not.
func TestCheckRelayEpochs(t *testing.T) {
	old := relay.Stats{State: relay.StateHealthy, Forwarded: 500, LateDrops: 40, Failovers: 2,
		HubReady: true, Hub: hub.Stats{Generated: 500, Sent: 1000}}
	fresh := relay.Stats{State: relay.StateDegraded, Forwarded: 3,
		HubReady: true, Hub: hub.Stats{Generated: 3, Sent: 2}}

	r := newRunner(Config{})
	r.checkRelay("relay t1/0", old)
	r.newEpoch("relay t1/0")
	r.checkRelay("relay t1/0", fresh)
	if len(r.violations) != 0 {
		t.Fatalf("restart in a new epoch: violations %q", r.violations)
	}

	r = newRunner(Config{})
	r.checkRelay("relay t1/0", old)
	r.checkRelay("relay t1/0", fresh)
	if len(r.violations) != 2 {
		t.Fatalf("regression without a restart: violations %q, want relay and hub", r.violations)
	}

	r = newRunner(Config{})
	r.checkRelay("relay t1/0", relay.Stats{State: relay.StateOrphaned})
	if len(r.violations) != 1 {
		t.Fatalf("orphaned relay: violations %q, want 1", r.violations)
	}
}
