package hub

import (
	"testing"

	"dmpstream/internal/wire"
)

// TestBytesHeldSharedAccounting pins the shared-buffer accounting
// identity: with payloads held once in the ring and only headers rendered
// per subscriber, BytesHeld must equal
//
//	(head − minNeed) × payloadSize  +  Σ_subs (head − cur + len(resend)) × FrameHeaderSize
//
// where minNeed is the oldest ring packet any live subscriber still
// needs. The pre-zero-copy accounting charged every subscriber a full
// frame per outstanding packet, double-counting each shared payload once
// per laggard; the hand-computed expectations here would catch that
// regression (the naive sum for the opening scenario is 1232, not 732).
// The identity is re-verified after each degradation-ladder step — clip,
// then eviction — since those are exactly the moves the governor makes
// based on this number.
func TestBytesHeldSharedAccounting(t *testing.T) {
	const payload = 100
	h := ownershipHub(t, 8, payload, 8) // head 8, ring holds 0..7
	sd := h.shards[0]

	mk := func(cur int64, resend []int64) *subscriber {
		tok, err := wire.NewToken()
		if err != nil {
			t.Fatal(err)
		}
		sub := &subscriber{token: tok, shard: sd, cur: cur, window: 8, resend: resend}
		addSub(sd, sub)
		return sub
	}
	// A needs 2..7; B's cursor is at 5 but its resend queue reaches back
	// to 3, so the shared span starts at 2 and payloads 2..7 are counted
	// once even though both subscribers hold references into them.
	subA := mk(2, nil)
	subB := mk(5, []int64{3, 4})

	check := func(step string, wantPayloadFrames, wantHdrFrames int64) {
		t.Helper()
		want := wantPayloadFrames*payload + wantHdrFrames*wire.FrameHeaderSize
		if got := h.BytesHeld(); got != want {
			t.Fatalf("%s: BytesHeld = %d, want %d (%d shared payloads + %d headers)",
				step, got, want, wantPayloadFrames, wantHdrFrames)
		}
		if st := h.Stats(); st.BytesHeld != want {
			t.Fatalf("%s: Stats().BytesHeld = %d, want %d", step, st.BytesHeld, want)
		}
	}

	// Span 2..7 once; headers: A (8-2)=6, B (8-5)+2=5.
	check("initial", 6, 11)

	// Ladder step 1: clip A to a 4-packet window (cur 2 → 4). B's resend
	// tail at 3 now anchors the shared span.
	sd.mu.Lock()
	if freed := sd.clipLocked(subA, 4, h.ring.headSeq()); freed != 2 {
		sd.mu.Unlock()
		t.Fatalf("clip freed %d packets, want 2", freed)
	}
	sd.mu.Unlock()
	check("after clip", 5, 9)

	// Ladder step 2: evict B; its pins stop counting the moment it leaves.
	sd.mu.Lock()
	sd.evictLocked(subB)
	sd.mu.Unlock()
	check("after evicting B", 4, 4)

	// No subscribers left: nothing is held, whatever the ring retains.
	sd.mu.Lock()
	sd.evictLocked(subA)
	sd.mu.Unlock()
	check("after evicting A", 0, 0)
}

// TestShedSkipsDrainedSubscriber pins the governor's rank-then-shed race:
// accountLocked picks the worst holder under one hold of the shard lock
// and shedLocked runs under the next, so a worker can drain the subscriber
// in between. Walking the ladder over a backlog that is gone finds nothing
// to clip at any window, shrinks the window to the floor and evicts a
// subscriber that has caught up. The shed must instead notice that the
// subscriber no longer holds what it was ranked on, take no step, count
// none, and leave the verdict to the governor's next accounting pass.
func TestShedSkipsDrainedSubscriber(t *testing.T) {
	const payload = 100
	h := ownershipHub(t, 64, payload, 64) // head 64, ring holds 0..63
	sd := h.shards[0]
	sub := &subscriber{token: newToken(t), shard: sd, cur: 4, window: 64}
	addSub(sd, sub)
	head := h.ring.headSeq()

	// Rank: the subscriber holds 60 frames and is the worst (the only) one.
	h.govMu.Lock()
	defer h.govMu.Unlock()
	_, bh, worstShard := h.accountLocked(head, true)
	ranked, worst := bh.worstHeld, bh.worst
	if worst != sub || worstShard != sd || ranked != 60*(payload+wire.FrameHeaderSize) {
		t.Fatalf("ranked %p (shard %p) at %d bytes", worst, worstShard, ranked)
	}

	// Between rank and shed a worker delivers the whole backlog.
	sd.mu.Lock()
	sd.advanceLocked(sub, head)
	sd.shedLocked(sub, head, ranked)
	evicted, window, sheds := sub.evicted, sub.window, sub.sheds
	sd.mu.Unlock()
	if evicted || window != 64 || sheds != 0 || h.shedCount.Load() != 0 || h.evictedCount.Load() != 0 {
		t.Fatalf("drained subscriber was shed: evicted %v, window %d, sheds %d (hub: %d shed, %d evicted)",
			evicted, window, sheds, h.shedCount.Load(), h.evictedCount.Load())
	}

	// A subscriber that still holds what it was ranked on is shed as before.
	sd.mu.Lock()
	sd.advanceLocked(sub, 4) // back where it was ranked
	sd.shedLocked(sub, head, ranked)
	evicted, window, sheds, cur := sub.evicted, sub.window, sub.sheds, sub.cur
	sd.mu.Unlock()
	if evicted || sheds != 1 || window != 32 || cur != head-32 {
		t.Fatalf("ranked holder not clipped one rung: evicted %v, sheds %d, window %d, cur %d", evicted, sheds, window, cur)
	}
}
