package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// replayConn serves a path rendered into memory beforehand.
type replayConn struct {
	net.Conn
	r *bytes.Reader
}

func (c *replayConn) Read(p []byte) (int, error)      { return c.r.Read(p) }
func (c *replayConn) SetReadDeadline(time.Time) error { return nil }

// renderPaths renders a stream into one byte string per path: pkts[k] is
// what path k carries, in order, followed by an end marker announcing
// expected packets.
func renderPaths(payload int, expected int64, pkts ...[]uint32) [][]byte {
	out := make([][]byte, len(pkts))
	frame := make([]byte, frameHdr+payload)
	for k := range pkts {
		var b bytes.Buffer
		b.Grow(headerSize + (len(pkts[k])+1)*len(frame))
		WriteStreamHeader(&b, k, len(pkts), payload, 1000)
		for _, pkt := range pkts[k] {
			PutFrameHeader(frame, pkt, int64(pkt))
			b.Write(frame)
		}
		PutFrameHeader(frame, EndMarker, expected)
		b.Write(frame)
		out[k] = b.Bytes()
	}
	return out
}

// alternate deals packets 0..n-1 over two paths in turn.
func alternate(n int) (even, odd []uint32) {
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			even = append(even, uint32(i))
		} else {
			odd = append(odd, uint32(i))
		}
	}
	return even, odd
}

// replay runs every rendered path into r at once and fails on any error.
func replay(tb testing.TB, r *Receiver, paths [][]byte) {
	tb.Helper()
	errs := make([]error, len(paths))
	var wg sync.WaitGroup
	for k := range paths {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			errs[k] = r.Run(k, &replayConn{r: bytes.NewReader(paths[k])})
		}(k)
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			tb.Fatalf("path %d: %v", k, err)
		}
	}
}

// TestReceiverFootprint pins what the whole receiver keeps per packet for as
// long as the stream lives — the arrival log and the duplicate filter — with
// 100 000 packets replayed over two paths. The replay is a flattering case
// for the log: its arrivals are stamped nanoseconds apart, so their deltas
// code in a byte or two. TestReceiverLogFootprint is the schedule that pins
// the log's cost; this one pins that nothing else the receiver keeps grows
// with the stream.
func TestReceiverFootprint(t *testing.T) {
	const packets, perPacketBudget = 100_000, 10
	even, odd := alternate(packets)
	paths := renderPaths(16, packets, even, odd)
	heap0 := liveHeap()

	r := NewReceiver(ReceiverOptions{})
	replay(t, r, paths)
	perPacket := float64(int64(liveHeap())-int64(heap0)) / packets
	t.Logf("%.1f B of live heap per recorded packet", perPacket)
	if perPacket > perPacketBudget {
		t.Errorf("receiver keeps %.1f B per packet, budget %d", perPacket, perPacketBudget)
	}
	runtime.KeepAlive(paths)

	tr := r.Trace()
	if len(tr.Arrivals) != packets || tr.Expected != packets || len(tr.Missing()) != 0 || tr.Duplicates != 0 {
		t.Fatalf("%d arrivals of %d expected, %d missing, %d duplicates",
			len(tr.Arrivals), tr.Expected, len(tr.Missing()), tr.Duplicates)
	}
}

// cbrSchedule is n arrivals, in arrival order, of a 300 pkt/s stream striped
// over a 1 ms and an 8 ms path: generation stamps jitter by up to 50 µs,
// every delivery by up to 200 µs more, and a packet on the slow path lands
// two or three packets after the fast path's that follow it.
func cbrSchedule(n int) []Arrival {
	const period = int64(time.Second / 300)
	delay := [2]int64{int64(time.Millisecond), int64(8 * time.Millisecond)}
	rng := rand.New(rand.NewSource(1))
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano()
	out := make([]Arrival, n)
	for i := range out {
		gen := base + int64(i)*period + rng.Int63n(50_000)
		path := int32(0)
		if rng.Intn(3) == 0 {
			path = 1
		}
		out[i] = Arrival{Pkt: uint32(i), Path: path, Gen: gen, At: gen + delay[path] + rng.Int63n(200_000)}
	}
	slices.SortStableFunc(out, func(a, b Arrival) int { return cmp.Compare(a.At, b.At) })
	return out
}

// TestReceiverLogFootprint pins what the arrival log costs a packet of a
// stream like the paper's: 100 000 arrivals of cbrSchedule must take no
// more than 10 B of live heap each, and come back out of Trace exactly.
// Their deltas are a packet or two, a path change about one time in two, and
// generation and arrival gaps of milliseconds: four-byte varints.
func TestReceiverLogFootprint(t *testing.T) {
	const packets, perPacketBudget = 100_000, 10
	sched := cbrSchedule(packets)
	heap0 := liveHeap()

	r := NewReceiver(ReceiverOptions{})
	for _, a := range sched {
		r.recordLocked(a)
	}
	perPacket := float64(int64(liveHeap())-int64(heap0)) / packets
	t.Logf("%.2f B of live heap per recorded packet, %d chunks", perPacket, len(r.log))
	if perPacket > perPacketBudget {
		t.Errorf("log keeps %.2f B per packet, budget %d", perPacket, perPacketBudget)
	}
	if tr := r.Trace(); !slices.Equal(tr.Arrivals, sched) {
		t.Fatal("the log did not give back the arrivals recorded")
	}
}

// TestReceiverLogHostile bounds the log's cost a packet whatever the values:
// packet numbers one per 64-packet word and 2²⁷ apart, path indices and
// stamps jumping between extremes, so that every record takes maxRecordLen
// bytes. A peer controls only the packet number and the generation stamp;
// the path index and the clock are pushed too, for the worst case of every
// field. A chunk then holds ⌊4096/30⌋ records and leaves 16 bytes unused,
// ≈ 30.1 B a packet; the bound is 32. The duplicate filter's own hostile
// cost is TestPacketSetHostileStride's.
func TestReceiverLogHostile(t *testing.T) {
	const packets, perPacketBudget = 40_000, 32
	sched := make([]Arrival, packets)
	for i := range sched {
		odd := int64(i % 2)
		sched[i] = Arrival{
			Pkt:  uint32(i) * 64 * (1<<21 + 1),
			Path: int32(odd) * math.MinInt32,
			Gen:  odd * math.MinInt64,
			At:   math.MaxInt64 + odd*math.MinInt64,
		}
	}
	if n := len(appendRecord(nil, sched[1], sched[2])); n != maxRecordLen {
		t.Fatalf("schedule's record is %d B, want the worst case %d", n, maxRecordLen)
	}
	heap0 := liveHeap()

	r := NewReceiver(ReceiverOptions{})
	for _, a := range sched {
		r.recordLocked(a)
	}
	perPacket := float64(int64(liveHeap())-int64(heap0)) / packets
	t.Logf("%.2f B of live heap per recorded packet", perPacket)
	if perPacket > perPacketBudget {
		t.Errorf("log keeps %.2f B per packet, bound %d", perPacket, perPacketBudget)
	}
	if !slices.Equal(r.decodeLocked(nil), sched) {
		t.Fatal("the log did not give back the arrivals recorded")
	}
}

// TestReceiverLogBlockBoundary fills the log's first chunk to four bytes
// short of its end and records one more arrival: a four-byte record lands
// exactly at the chunk's end, a five-byte one would straddle it and starts
// the next chunk instead. Either way Trace gives back every arrival. Then a
// stream whose log spans several chunks is replayed through Run, and the
// snapshot must be exact: every arrival once and attributed to its path, the
// packets never sent reported missing, the resent ones counted as
// duplicates.
func TestReceiverLogBlockBoundary(t *testing.T) {
	for _, tc := range []struct {
		name       string
		step       int64 // arrival gap of the last record: 64 ns codes in 2 bytes, 8192 ns in 3
		chunks     int
		firstChunk int
	}{
		{"lands at the end", 64, 1, logChunkSize},
		{"would straddle", 8192, 2, logChunkSize - 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Each arrival after the first is one packet on, same path, same
			// stamps: a three-byte record, as is the first against the zero
			// arrival.
			var sched []Arrival
			for i := 0; i < (logChunkSize-4)/3; i++ {
				sched = append(sched, Arrival{Pkt: uint32(i)})
			}
			r := NewReceiver(ReceiverOptions{})
			for _, a := range sched {
				r.recordLocked(a)
			}
			if len(r.log) != 1 || len(r.log[0]) != logChunkSize-4 {
				t.Fatalf("filled %d chunks, the first %d B; want one of %d B", len(r.log), len(r.log[0]), logChunkSize-4)
			}
			last := Arrival{Pkt: uint32(len(sched)), At: tc.step}
			sched = append(sched, last)
			r.recordLocked(last)
			if len(r.log) != tc.chunks || len(r.log[0]) != tc.firstChunk {
				t.Fatalf("%d chunks, the first %d B; want %d, %d B", len(r.log), len(r.log[0]), tc.chunks, tc.firstChunk)
			}
			// One more to follow the edge.
			sched = append(sched, Arrival{Pkt: last.Pkt + 1, Path: 1, At: last.At})
			r.recordLocked(sched[len(sched)-1])
			if tr := r.Trace(); !slices.Equal(tr.Arrivals, sched) {
				t.Fatal("the log did not give back the arrivals recorded")
			}
		})
	}

	// Numbers 0..n+1 with two never sent leaves n to record. Path 0 runs to
	// its end before path 1 starts, so path 1's three resends of path 0's
	// packets are the duplicates and the attribution is fixed.
	const n = 3000
	missing := []uint32{5, n}
	var first, second []uint32
	for pkt := uint32(0); pkt < n+2; pkt++ {
		switch {
		case pkt == missing[0] || pkt == missing[1]:
		case pkt%2 == 0:
			first = append(first, pkt)
		default:
			second = append(second, pkt)
		}
	}
	want := []int64{int64(len(first)), int64(len(second))}
	second = append(second, first[0], first[len(first)/2], first[len(first)-1])
	paths := renderPaths(8, n+2, first, second)

	r := NewReceiver(ReceiverOptions{})
	replay(t, r, paths[:1])
	if err := r.Run(1, &replayConn{r: bytes.NewReader(paths[1])}); err != nil {
		t.Fatalf("path 1: %v", err)
	}
	if len(r.log) < 2 {
		t.Fatalf("log of %d chunks; the replay must cross a chunk edge", len(r.log))
	}
	tr := r.Trace()
	if len(tr.Arrivals) != n || tr.Expected != n+2 {
		t.Fatalf("%d arrivals, expected field %d", len(tr.Arrivals), tr.Expected)
	}
	if got := tr.Missing(); !reflect.DeepEqual(got, missing) {
		t.Errorf("missing %v, want %v", got, missing)
	}
	if tr.Duplicates != 3 {
		t.Errorf("%d duplicates, want 3", tr.Duplicates)
	}
	if got := tr.PathCounts(2); !reflect.DeepEqual(got, want) {
		t.Errorf("path counts %v, want %v", got, want)
	}
	var seen PacketSet
	for i, a := range tr.Arrivals {
		if !seen.Add(a.Pkt) || a.Gen != int64(a.Pkt) || a.Path != int32(a.Pkt%2) {
			t.Fatalf("arrival %d is %+v", i, a)
		}
	}
}

// FuzzArrivalLog: any sequence of arrivals must come back out of the log
// exactly — packet numbers in any order and stride, negative paths, stamps
// at math.MinInt64 and math.MaxInt64, the clock going backwards. The input
// is cut into 24-byte arrivals (packet, path, generation and arrival stamps,
// little-endian), recorded, and recorded again from the start until the log
// spans more than one chunk.
// Decoded in recorded order it must equal the input; Trace must equal the
// input stably sorted by arrival stamp.
func FuzzArrivalLog(f *testing.F) {
	encode := func(as ...Arrival) []byte {
		var b []byte
		for _, a := range as {
			b = binary.LittleEndian.AppendUint32(b, a.Pkt)
			b = binary.LittleEndian.AppendUint32(b, uint32(a.Path))
			b = binary.LittleEndian.AppendUint64(b, uint64(a.Gen))
			b = binary.LittleEndian.AppendUint64(b, uint64(a.At))
		}
		return b
	}
	f.Add(encode(cbrSchedule(8)...))
	f.Add(encode(
		Arrival{Pkt: 0, Path: 0, Gen: math.MinInt64, At: math.MaxInt64},
		Arrival{Pkt: math.MaxUint32, Path: -1, Gen: math.MaxInt64, At: math.MinInt64},
		Arrival{Pkt: 64, Path: math.MinInt32, Gen: 0, At: -1},
		Arrival{Pkt: 1 << 31, Path: math.MaxInt32, Gen: 1, At: 0},
	))
	f.Add(encode( // strided numbers, a clock stepping back and ties
		Arrival{Pkt: 0, Path: 1, Gen: 1e18, At: 1e18 + 5e6},
		Arrival{Pkt: 4096, Path: 0, Gen: 1e18 + 3e6, At: 1e18 + 1e6},
		Arrival{Pkt: 8192, Path: 1, Gen: 1e18 + 6e6, At: 1e18 + 1e6},
		Arrival{Pkt: 2, Path: -7, Gen: 1e18 - 3e6, At: 1e18 + 9e6},
	))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var cycle []Arrival
		for ; len(data) >= 24; data = data[24:] {
			cycle = append(cycle, Arrival{
				Pkt:  binary.LittleEndian.Uint32(data),
				Path: int32(binary.LittleEndian.Uint32(data[4:])),
				Gen:  int64(binary.LittleEndian.Uint64(data[8:])),
				At:   int64(binary.LittleEndian.Uint64(data[16:])),
			})
		}
		r := NewReceiver(ReceiverOptions{})
		var in []Arrival
		var prev Arrival
		for i := 0; i < len(cycle) || (len(cycle) > 0 && len(r.log) < 2); i++ {
			a := cycle[i%len(cycle)]
			if n := len(appendRecord(nil, prev, a)); n > maxRecordLen {
				t.Fatalf("arrival %d: %d-byte record, longest allowed %d", i, n, maxRecordLen)
			}
			r.recordLocked(a)
			in = append(in, a)
			prev = a
		}
		for i, chunk := range r.log {
			if cap(chunk) != logChunkSize {
				t.Fatalf("chunk %d has capacity %d, want %d", i, cap(chunk), logChunkSize)
			}
		}
		if got := r.decodeLocked(nil); !slices.Equal(got, in) {
			t.Fatalf("decoded %d arrivals, not the %d recorded", len(got), len(in))
		}
		want := slices.Clone(in)
		slices.SortStableFunc(want, func(a, b Arrival) int { return cmp.Compare(a.At, b.At) })
		if tr := r.Trace(); !slices.Equal(tr.Arrivals, want) {
			t.Fatal("Trace is not the recorded arrivals stably sorted by arrival stamp")
		}
	})
}

// TestReceiveRejectsPayloadMismatch: a path whose header announces a
// different payload size than its siblings is refused like one announcing a
// different rate, and does not rewrite the trace's metadata.
func TestReceiveRejectsPayloadMismatch(t *testing.T) {
	r := NewReceiver(ReceiverOptions{})
	replay(t, r, renderPaths(16, 3, []uint32{0, 1, 2}))
	odd := renderPaths(32, 3, []uint32{0})[0]
	err := r.Run(1, &replayConn{r: bytes.NewReader(odd)})
	if err == nil || !strings.Contains(err.Error(), "payload") {
		t.Fatalf("path with another payload size: %v, want a rejection naming the payload", err)
	}
	if tr := r.Trace(); tr.PayloadSize != 16 || len(tr.Arrivals) != 3 || tr.Duplicates != 0 {
		t.Fatalf("rejected path left its mark: payload %d, %d arrivals, %d duplicates",
			tr.PayloadSize, len(tr.Arrivals), tr.Duplicates)
	}
}

// TestTraceKeepsRecordedOrderOnEqualStamps: arrivals stamped in the same
// nanosecond (a coarse clock) must come out in the order they were recorded,
// or ReorderCount reports reordering that did not happen; and when the wall
// clock did step back, the sort that repairs it must not disturb the ties.
func TestTraceKeepsRecordedOrderOnEqualStamps(t *testing.T) {
	const n = logChunkSize // three-byte records: the log spans three chunks
	r := NewReceiver(ReceiverOptions{})
	for pkt := uint32(0); pkt < n; pkt++ {
		r.recordLocked(Arrival{Pkt: pkt, At: 1000})
	}
	tr := r.Trace()
	for i, a := range tr.Arrivals {
		if a.Pkt != uint32(i) {
			t.Fatalf("equal stamps: arrival %d is packet %d", i, a.Pkt)
		}
	}
	if got := tr.ReorderCount(); got != 0 {
		t.Fatalf("equal stamps: %d reorderings reported, none happened", got)
	}

	// The clock steps back after packet n-1: the later arrivals sort to the
	// front, each group still in recorded order.
	for pkt := uint32(n); pkt < 2*n; pkt++ {
		r.recordLocked(Arrival{Pkt: pkt, At: 500})
	}
	tr = r.Trace()
	for i, a := range tr.Arrivals {
		if want := (uint32(i) + n) % (2 * n); a.Pkt != want {
			t.Fatalf("stepped clock: arrival %d is packet %d, want %d", i, a.Pkt, want)
		}
	}
}

// BenchmarkReceiverIngest replays a 200 000-packet stream, rendered into
// memory and dealt over two paths, into a fresh Receiver: ns/frame is the
// cost of recording a packet with both readers contending for the
// receiver's lock, B/op what the whole stream allocated (divide by 200 000
// for a packet's share).
func BenchmarkReceiverIngest(b *testing.B) {
	const packets = 200_000
	even, odd := alternate(packets)
	paths := renderPaths(16, packets, even, odd)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewReceiver(ReceiverOptions{})
		replay(b, r, paths)
		if r.n != packets {
			b.Fatalf("%d of %d packets", r.n, packets)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/packets, "ns/frame")
}
