package core

import (
	"cmp"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"dmpstream/internal/wire"
)

// TestPacketSetMatchesMapOracle drives the bitmap and a map[uint32]bool with
// the same seeded sequences — dense runs delivered out of order and more than
// once, numbers scattered over the whole 32-bit range, and numbers packed
// against EndMarker — and requires the same answer from every Add, Has and
// Len.
func TestPacketSetMatchesMapOracle(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var set PacketSet
		oracle := make(map[uint32]bool)
		draw := func() uint32 {
			switch rng.Intn(4) {
			case 0: // dense, reordered within a window that slides forward
				return uint32(len(oracle)) + uint32(rng.Intn(96))
			case 1: // duplicate of something recent
				return uint32(rng.Intn(len(oracle) + 1))
			case 2: // sparse
				return rng.Uint32()
			default: // the last numbers before the end marker
				return wire.EndMarker - 1 - uint32(rng.Intn(200))
			}
		}
		for i := 0; i < 5000; i++ {
			pkt := draw()
			if got, want := set.Add(pkt), !oracle[pkt]; got != want {
				t.Fatalf("seed %d step %d: Add(%d) = %v, oracle says %v", seed, i, pkt, got, want)
			}
			oracle[pkt] = true
			if set.Len() != len(oracle) {
				t.Fatalf("seed %d step %d: Len %d, oracle %d", seed, i, set.Len(), len(oracle))
			}
			if probe := draw(); set.Has(probe) != oracle[probe] {
				t.Fatalf("seed %d step %d: Has(%d) = %v, oracle says %v", seed, i, probe, set.Has(probe), oracle[probe])
			}
		}
		for pkt := range oracle {
			if !set.Has(pkt) {
				t.Fatalf("seed %d: %d added but not held", seed, pkt)
			}
		}
	}
}

func TestPacketSetZeroValue(t *testing.T) {
	var set PacketSet
	if set.Has(0) || set.Has(wire.EndMarker) || set.Len() != 0 {
		t.Fatal("empty set holds something")
	}
	if !set.Add(wire.EndMarker) || set.Add(wire.EndMarker) || !set.Has(wire.EndMarker) || set.Has(wire.EndMarker-1) || set.Len() != 1 {
		t.Fatal("the largest number is not an ordinary member")
	}
}

// liveHeap is the heap in use after a forced collection.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestPacketSetHostileStride: a peer that strides its packet numbers so each
// lands in a word of its own gets one map entry per packet out of the set and
// nothing else — no block sized by the span of the numbers. 10 000 such
// packets must stay under 48 bytes each (a map[uint32]uint64 entry at the
// table's emptiest, just after it doubles; a map[uint32]bool reads 12–20,
// the bitmap 24–39).
func TestPacketSetHostileStride(t *testing.T) {
	const packets, perPacketBudget = 10_000, 48
	for _, stride := range []uint32{64, 4096, 429_496} { // the last spans the whole 32-bit range
		heap0 := liveHeap()
		var set PacketSet
		for i := uint32(0); i < packets; i++ {
			if !set.Add(i * stride) {
				t.Fatalf("stride %d: packet %d reported as a duplicate", stride, i)
			}
		}
		perPacket := (int64(liveHeap()) - int64(heap0)) / packets
		t.Logf("stride %d: %d B per packet", stride, perPacket)
		if perPacket > perPacketBudget {
			t.Errorf("stride %d: %d B per packet, budget %d", stride, perPacket, perPacketBudget)
		}
		if set.Len() != packets {
			t.Fatalf("stride %d: holds %d of %d", stride, set.Len(), packets)
		}
	}
}

// TestPacketSetDensePrefix: a stream that arrives whole, reordered only
// within a short window, keeps just that window's words. A million packets,
// each delayed by up to 96 places, must never hold more than 4 map words,
// while Add, Has and Len answer as for any set.
func TestPacketSetDensePrefix(t *testing.T) {
	const packets, window, maxWords = 1 << 20, 96, 4
	rng := rand.New(rand.NewSource(1))
	order := make([]uint32, packets)
	due := make([]int, packets)
	for i := range order {
		order[i], due[i] = uint32(i), i+rng.Intn(window)
	}
	slices.SortStableFunc(order, func(a, b uint32) int { return cmp.Compare(due[a], due[b]) })
	var set PacketSet
	arrived := make([]bool, packets)
	prefix, most := 0, 0 // packets [0, prefix) have all arrived
	for i, pkt := range order {
		if !set.Add(pkt) || set.Add(pkt) || !set.Has(pkt) {
			t.Fatalf("packet %d (arrival %d): first Add, second Add or Has answered wrong", pkt, i)
		}
		for arrived[pkt] = true; prefix < packets && arrived[prefix]; prefix++ {
		}
		if prefix > 0 && !set.Has(uint32(prefix-1)) || prefix < packets && set.Has(uint32(prefix)) {
			t.Fatalf("arrival %d: Has is wrong at the edge of the %d-packet prefix", i, prefix)
		}
		most = max(most, len(set.words))
	}
	if set.Len() != packets || !set.Has(0) || !set.Has(packets-1) || set.Has(packets) {
		t.Fatalf("holds %d of %d; Has(0) %v, Has(last) %v, Has(next) %v",
			set.Len(), packets, set.Has(0), set.Has(packets-1), set.Has(packets))
	}
	t.Logf("at most %d map words, %d at the end", most, len(set.words))
	if most > maxWords {
		t.Errorf("held up to %d map words for a dense stream, want at most %d", most, maxWords)
	}
}
