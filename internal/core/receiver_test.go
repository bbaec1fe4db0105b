package core

import (
	"bytes"
	"net"
	"reflect"
	"runtime"
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

// TestReceiverFootprint pins what the receiver keeps per packet for as long
// as the stream lives: a 24-byte Arrival in a log that grows a block at a
// time, and about a bit of duplicate filter. 100 000 packets over two paths
// must leave no more than 26 bytes of live heap each; with 32-byte arrivals
// in an append-doubled slice and a map[uint32]bool the same measurement read
// ≈ 47.
func TestReceiverFootprint(t *testing.T) {
	const packets, perPacketBudget = 100_000, 26
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

// TestReceiverLogBlockBoundary records one packet fewer than a block of the
// log holds, exactly a block, and one more, and requires the snapshot exact
// each time: every arrival once and attributed to its path, the packets never
// sent reported missing, the resent ones counted as duplicates.
func TestReceiverLogBlockBoundary(t *testing.T) {
	for _, n := range []int{arrivalBlockLen - 1, arrivalBlockLen, arrivalBlockLen + 1} {
		// Numbers 0..n+1 with two never sent leaves n to record. Path 0 runs
		// to its end before path 1 starts, so path 1's three resends of
		// path 0's packets are the duplicates and the attribution is fixed.
		missing := []uint32{5, uint32(n)}
		var first, second []uint32
		for pkt := uint32(0); pkt < uint32(n)+2; pkt++ {
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
		paths := renderPaths(8, int64(n)+2, first, second)

		r := NewReceiver(ReceiverOptions{})
		replay(t, r, paths[:1])
		if err := r.Run(1, &replayConn{r: bytes.NewReader(paths[1])}); err != nil {
			t.Fatalf("n=%d: path 1: %v", n, err)
		}
		tr := r.Trace()
		if len(tr.Arrivals) != n || tr.Expected != int64(n)+2 {
			t.Fatalf("n=%d: %d arrivals, expected field %d", n, len(tr.Arrivals), tr.Expected)
		}
		if got := tr.Missing(); !reflect.DeepEqual(got, missing) {
			t.Errorf("n=%d: missing %v, want %v", n, got, missing)
		}
		if tr.Duplicates != 3 {
			t.Errorf("n=%d: %d duplicates, want 3", n, tr.Duplicates)
		}
		if got := tr.PathCounts(2); !reflect.DeepEqual(got, want) {
			t.Errorf("n=%d: path counts %v, want %v", n, got, want)
		}
		var seen PacketSet
		for i, a := range tr.Arrivals {
			if !seen.Add(a.Pkt) || a.Gen != int64(a.Pkt) || a.Path != int32(a.Pkt%2) {
				t.Fatalf("n=%d: arrival %d is %+v", n, i, a)
			}
		}
	}
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
	const n = 3 * arrivalBlockLen / 2
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
