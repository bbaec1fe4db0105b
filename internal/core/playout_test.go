package core

import (
	"cmp"
	"math"
	"slices"
	"testing"
	"time"
)

// playUnit is the fuzzer's time quantum, 1/512 s: µ of 64·2^k packets a
// second gives a period of whole units, and a delay of whole units turns
// into the seconds Trace.LateFraction takes and back to nanoseconds
// exactly, so an arrival at its slot's very nanosecond meets the trace's
// strict > exactly where the step's rule does.
const playUnit = int64(time.Second) / 512

// playArrival is one arrival the fuzzer generated, in units.
type playArrival struct {
	pkt uint32
	at  int64
}

// FuzzPlayoutMatchesTrace replays generated CBR arrivals through the
// playout step at virtual times and holds it to two oracles. Answer by
// answer, a model of the first-arrival rule decides each arrival and each
// tick on the slot clock started at the first header; it judges lateness
// by the arrival's time against its slot's, the step by the playhead
// alone, which agree because a slot ticks before any later arrival. In
// sum, the glitch count equals the trace's playback late count at τ + d0,
// d0 the first header's arrival minus Gen_0, over the arrivals the step
// did not drop as early, which it counts apart.
//
// Each arrival is two bytes a, b. a&1 is its path; path 1's header comes
// hdr1 units after path 0's, and nothing arrives on a path before its
// header, which is 8·d0 units after Gen_0 (a header that comes late finds a
// backlog, which bursts). (a>>1)&3 picks the packet, modulo the stream's
// count, from a running cursor c and x = a>>3: 0 is c, which moves on; 1 a
// copy of one of the 8 below c; 2 one 8x past c that arrives with c (an
// early drop once past the hold span); 3 is x. b below 0xf0 is the delay in
// units past the generation of the packet (of c, for 2); 0xf0 and above
// land within 8 units of the packet's slot, 0xf8 on its very nanosecond.
// With a marker (flags&1) the stream's count is known from the start;
// without, every path fails after the last arrival and playout ends once
// nothing is parked.
func FuzzPlayoutMatchesTrace(f *testing.F) {
	const onTime, atSlot, pastSlot = 0, 0xf8, 0xf9
	next := func(path int, b byte) []byte { return []byte{byte(path), b} }
	copyOf := func(path, back int, b byte) []byte { return []byte{byte(path | 1<<1 | back<<3), b} }
	ahead := func(path, eights int, b byte) []byte { return []byte{byte(path | 2<<1 | eights<<3), b} }
	seed := func(mu, tau uint8, d0 int8, hdr1, n, flags uint8, arrivals ...[]byte) {
		f.Add(mu, tau, d0, hdr1, n, flags, slices.Concat(arrivals...))
	}
	// A clean stream over two paths, all on time (µ 64, τ 41 units).
	seed(0, 40, 0, 0, 5, 1, next(0, onTime), next(1, onTime), next(0, 2), next(1, 2), next(0, 1), next(1, 1))
	// On its slot's nanosecond is on time, a unit past it is late, and the
	// copy after the glitch is a duplicate.
	seed(1, 10, 0, 0, 2, 1, next(0, atSlot), next(0, pastSlot), next(0, onTime), copyOf(1, 1, 200))
	// Packet 1 comes first 3 units past its slot, packet 0 again later.
	seed(2, 6, 0, 0, 3, 1, next(0, onTime), next(1, 0xfb), copyOf(0, 1, 100), next(0, onTime), next(0, onTime))
	// Packet 73 comes with packet 1, 72 ahead of the next slot (µ 64, τ one
	// unit: a 65-packet hold span), and is dropped; its copy a unit before
	// its slot plays.
	seed(0, 0, 0, 0, 79, 1, next(0, onTime), ahead(0, 9, onTime), ahead(1, 9, 0xf7))
	// Path 1's header comes 40 units after path 0's, when slot 1 has passed
	// and slot 2 is due: packet 1 on it is late, 2 on time on its slot's
	// nanosecond, and so are 4 and 5.
	seed(3, 37, 0, 40, 7, 1, next(0, onTime), next(1, onTime), next(1, onTime), next(0, 0xfa), next(1, onTime), next(1, onTime), next(0, onTime), next(0, onTime))
	// The first packet comes 30 units after the header: the clock runs from
	// the header, so packet 1, a unit past its slot, is late.
	seed(0, 60, 0, 0, 2, 1, next(0, 30), next(0, pastSlot), next(0, 30))
	// No end marker: the paths fail after packet 2 comes late, twice, and
	// playout ends once nothing is parked.
	seed(1, 30, 2, 10, 4, 0, next(0, onTime), next(1, onTime), ahead(0, 0, 0xfa), next(0, 0xff))
	f.Fuzz(func(t *testing.T, mu, tau uint8, d0 int8, hdr1, n, flags uint8, ops []byte) {
		rate := float64(int(64) << (mu % 4))
		period := 512 / (int64(64) << (mu % 4)) // units
		tauU, count, marker := 1+int64(tau), int64(1+n%200), flags&1 != 0
		const gen0 = 4096 // Gen_0, units
		hdr := [2]int64{gen0 + 8*int64(d0), gen0 + 8*int64(d0) + int64(hdr1)}
		slotAt := func(pkt uint32) int64 { return hdr[0] + tauU + int64(pkt)*period }

		var arrivals []playArrival
		cursor := 0
		for ; len(ops) >= 2 && len(arrivals) < 1000; ops = ops[2:] {
			a, b := ops[0], ops[1]
			x := int(a >> 3)
			pkt, from := x, 0
			switch (a >> 1) & 3 {
			case 0:
				pkt = cursor
				cursor++
			case 1:
				pkt = max(cursor-1-x%8, 0)
			case 2:
				pkt, from = cursor+8*x, cursor
			}
			pkt %= int(count)
			if from == 0 {
				from = pkt
			}
			at := gen0 + int64(from)*period + int64(b)
			if b >= 0xf0 {
				at = slotAt(uint32(pkt)) + int64(b) - 0xf8
			}
			arrivals = append(arrivals, playArrival{uint32(pkt), max(at, hdr[a&1])})
		}
		slices.SortStableFunc(arrivals, func(x, y playArrival) int { return cmp.Compare(x.at, y.at) })

		p := &playout{tau: tauU * playUnit}
		span := int64(holdSpan(rate, time.Duration(p.tau)))
		seen, parked := map[uint32]bool{}, map[uint32]bool{}
		var kept []Arrival // what the trace records: every arrival but the early drops
		exp := int64(-1)
		if marker {
			exp = count
		}
		headers, i, ticks := 0, 0, uint32(0)
		for {
			if headers < 2 && (i == len(arrivals) || hdr[headers] <= arrivals[i].at) {
				if got := p.header(rate, hdr[headers]*playUnit); got != (headers == 0) {
					t.Fatalf("header %d at %d: started the clock %v", headers, hdr[headers], got)
				}
				headers++
				continue
			}
			at, over := p.due(exp, !marker && i == len(arrivals))
			switch {
			case i < len(arrivals) && (over || arrivals[i].at*playUnit <= at):
				a := arrivals[i]
				want := playParked
				switch {
				case int64(a.pkt)-int64(ticks) >= span:
					want = playEarly
				case seen[a.pkt]:
					want = playDuplicate
				case a.pkt < ticks || a.at > slotAt(a.pkt): // the same once a slot ticks before a later arrival
					want = playLate
				}
				if want != playEarly {
					if !seen[a.pkt] {
						seen[a.pkt], parked[a.pkt] = true, want == playParked
					}
					kept = append(kept, Arrival{Pkt: a.pkt, Gen: (gen0 + int64(a.pkt)*period) * playUnit, At: a.at * playUnit})
				}
				if got := p.arrive(a.pkt, []byte{byte(a.pkt)}); got != want {
					t.Fatalf("arrival %d (packet %d at %d, slot %d at %d): answer %d, want %d", i, a.pkt, a.at, ticks, at/playUnit, got, want)
				}
				i++
			case over:
				st := p.result(exp)
				tr := &Trace{Mu: rate, Expected: st.Expected, Arrivals: kept}
				pb, _ := tr.LateFraction(float64((tauU+hdr[0]-gen0)*playUnit) / 1e9)
				if late := int64(math.Round(pb * float64(st.Expected))); st.Glitches != late {
					t.Fatalf("%d glitches in %d slots; the trace counts %d late at τ + d0", st.Glitches, st.Expected, late)
				}
				if missing := int64(len(tr.Missing())); st.LateArrivals != st.Glitches-missing || st.Played+st.Glitches != st.Expected {
					t.Fatalf("played %d, %d glitches, %d late arrivals, %d missing, of %d", st.Played, st.Glitches, st.LateArrivals, missing, st.Expected)
				}
				if early := len(arrivals) - len(kept); st.Early != int64(early) {
					t.Fatalf("%d early drops, want %d", st.Early, early)
				}
				return
			default:
				slot, data, ok := p.tick()
				if slot != ticks {
					t.Fatalf("ticked slot %d, want %d", slot, ticks)
				}
				ticks++
				if ok != parked[slot] || ok && data[0] != byte(slot) {
					t.Fatalf("slot %d at %d: played %v (%v), want %v", slot, at/playUnit, ok, data, parked[slot])
				}
				if ok {
					p.buf.Recycle(data)
				}
			}
		}
	})
}

// TestPlayoutHolesCostBits: a playout over 10⁶ slots whose every odd
// packet never arrives keeps its first arrivals in at most 16 k bitmap
// words, about a bit a packet, where a map of the glitched slots would
// hold 5 × 10⁵ entries.
func TestPlayoutHolesCostBits(t *testing.T) {
	const slots = 1_000_000
	p := &playout{tau: int64(time.Second)}
	p.header(1000, 0)
	payload := make([]byte, 16)
	for slot := uint32(0); slot < slots; slot++ {
		if slot%2 == 0 {
			p.arrive(slot, payload)
		}
		if _, data, ok := p.tick(); ok {
			p.buf.Recycle(data)
		}
	}
	st := p.result(slots)
	if st.Played != slots/2 || st.Glitches != slots/2 {
		t.Fatalf("played %d, %d glitches", st.Played, st.Glitches)
	}
	if words := len(p.seen.words); words > 16<<10 {
		t.Fatalf("first arrivals held in %d words, want at most %d", words, 16<<10)
	}
	t.Logf("%d words for %d slots", len(p.seen.words), slots)
}
