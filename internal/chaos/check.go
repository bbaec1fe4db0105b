package chaos

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"dmpstream/internal/core"
	"dmpstream/internal/hub"
	"dmpstream/internal/relay"
)

// fill is every origin stream's payload for absolute packet pkt: the
// number itself, then bytes derived from it, so a subscriber can tell from
// the payload alone which packet it carries and whether it arrived intact
// — through any number of relay tiers and whatever numbering its join asked
// for.
func fill(pkt uint32, buf []byte) {
	_ = buf[3] // every stream's payload is 64 bytes
	binary.BigEndian.PutUint32(buf, pkt)
	for i := 4; i < len(buf); i++ {
		buf[i] = byte(uint32(i)*2654435761 + pkt*97 + 13)
	}
}

// carried returns the absolute packet number payload was filled for and
// whether every byte matches that fill.
func carried(payload []byte) (uint32, bool) {
	if len(payload) < 4 {
		return 0, false
	}
	pkt := binary.BigEndian.Uint32(payload)
	want := make([]byte, len(payload))
	fill(pkt, want)
	return pkt, string(want) == string(payload)
}

// sub is one conserving subscriber: a two-path client whose receiver
// checks every payload against the origin's fill as it first arrives.
type sub struct {
	name     string
	absolute bool         // origin numbering (a leaf) instead of the join-point rebase (a stayer)
	seen     atomic.Int64 // distinct packets so far: the settle probe
	base     int64        // absolute minus delivered number; the receiver's lock guards it
	bad      int64        // payloads off the fill or the numbering; the receiver's lock guards it
	out      chan outcome
}

type outcome struct {
	tr   *core.Trace
	errs []error
}

// onPacket runs under the receiver's lock for each distinct packet. A
// rebased join learns its offset from the first payload; an absolute join's
// offset is 0. Every packet must then carry exactly its number plus that
// offset, and the fill bytes for it.
func (s *sub) onPacket(pkt uint32, _ int64, payload []byte) {
	abs, ok := carried(payload)
	if s.seen.Add(1) == 1 && !s.absolute {
		s.base = int64(abs) - int64(pkt)
	}
	if !ok || int64(abs)-int64(pkt) != s.base {
		s.bad++
	}
}

// verdict judges one subscriber's finished stream, recording a violation
// unless it was conserved: an end marker arrived, every packet is inside
// the announced range and arrived once, the count is exact from the first
// packet (from packet 0 for a rebased join, whose join point is 0), and
// every payload matched the origin's fill. Path errors alone are not
// violations — paths flap by design; losing bytes is.
func (r *runner) verdict(s *sub, out outcome) Verdict {
	v := Verdict{Name: s.name, MinPkt: -1, BadBytes: s.bad}
	for _, err := range out.errs {
		if err != nil {
			v.Err = err.Error()
			break
		}
	}
	tr := out.tr
	if tr == nil || tr.Expected <= 0 {
		r.violatef("%s: no end marker (errs %v)", s.name, out.errs)
		return v
	}
	v.Expected = tr.Expected
	v.Received = int64(len(tr.Arrivals))
	var seen core.PacketSet
	for _, a := range tr.Arrivals {
		if int64(a.Pkt) >= tr.Expected {
			r.violatef("%s: packet %d outside announced range %d", s.name, a.Pkt, tr.Expected)
			return v
		}
		if !seen.Add(a.Pkt) {
			r.violatef("%s: packet %d delivered twice", s.name, a.Pkt)
			return v
		}
		if v.MinPkt < 0 || int64(a.Pkt) < v.MinPkt {
			v.MinPkt = int64(a.Pkt)
		}
	}
	first := int64(0)
	if s.absolute && v.MinPkt > 0 {
		first = v.MinPkt
	}
	if v.Received != v.Expected-first {
		missing := first
		for missing < v.Expected && seen.Has(uint32(missing)) {
			missing++
		}
		r.violatef("%s: stream not conserved: %d distinct packets, want %d (expected %d - first %d; #%d missing)",
			s.name, v.Received, v.Expected-first, v.Expected, first, missing)
	}
	if v.BadBytes != 0 {
		r.violatef("%s: %d packets off the origin's payload or numbering", s.name, v.BadBytes)
	}
	return v
}

// checkHub asserts one hub's standing guarantees against a fresh snapshot:
// the byte budget and subscriber cap hold (0 = none), the payload pool is
// intact, and no counter regressed since the previous snapshot in the same
// epoch.
func (r *runner) checkHub(name string, st hub.Stats, budget int64, maxSubs int) {
	if budget > 0 && st.BytesHeld > budget {
		r.violatef("%s: BytesHeld %d exceeds budget %d", name, st.BytesHeld, budget)
	}
	if maxSubs > 0 && st.Subscribers > maxSubs {
		r.violatef("%s: %d subscribers exceed cap %d", name, st.Subscribers, maxSubs)
	}
	if p, ok := r.prevHub[name]; ok && (st.Generated < p.Generated || st.Sent < p.Sent ||
		st.Dropped < p.Dropped || st.Rejected < p.Rejected || st.Shed < p.Shed || st.Evicted < p.Evicted) {
		r.violatef("%s: hub counters regressed: %+v -> %+v", name, p, st)
	}
	if st.Pool.DoublePuts != 0 || st.Pool.PoisonTrips != 0 {
		r.violatef("%s: payload pool integrity violated (double put or use-after-put): %+v", name, st.Pool)
	}
	r.prevHub[name] = st
}

// checkRelay asserts one relay incarnation's guarantees: never orphaned
// mid-run (every fault here is transient), forwarder counters monotone
// within the incarnation, and its local hub held to checkHub's.
func (r *runner) checkRelay(name string, st relay.Stats) {
	if st.State == relay.StateOrphaned {
		r.violatef("%s orphaned mid-run", name)
	}
	if p, ok := r.prevRelay[name]; ok && (st.Forwarded < p.Forwarded || st.LateDrops < p.LateDrops ||
		st.GapSkips < p.GapSkips || st.Failovers < p.Failovers) {
		r.violatef("%s: relay counters regressed", name)
	}
	r.prevRelay[name] = st
	if st.HubReady {
		r.checkHub(name, st.Hub, relayMaxBytes, 0)
	}
}

// newEpoch forgets name's previous snapshots: a restarted relay's counters
// start again from zero.
func (r *runner) newEpoch(name string) {
	delete(r.prevHub, name)
	delete(r.prevRelay, name)
}

// checkInvariants walks the whole topology after an event: every live
// origin stream, the registry-wide subscriber cap, and every relay.
func (r *runner) checkInvariants() {
	total := 0
	for _, ss := range r.reg.Stats().Streams {
		total += ss.Hub.Subscribers
		r.checkHub("stream "+ss.ID, ss.Hub, r.cfg.MaxBytes, hubMaxSubs)
	}
	// The registry cap is approximate under concurrent handshakes (each
	// hub's own cap is the strict one), so allow one burst in flight.
	if limit := regMaxSubs(r.cfg.Streams); total > limit+burstSize {
		r.violatef("%d subscribers far exceed registry MaxSubscribers %d", total, limit)
	}
	for _, s := range r.slots {
		r.checkRelay(s.name, s.r.Stats())
	}
}

// violatef records a violation; safe from any goroutine.
func (r *runner) violatef(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.mu.Lock()
	r.violations = append(r.violations, msg)
	r.mu.Unlock()
	r.logf("VIOLATION: %s", msg)
}

func (r *runner) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}
