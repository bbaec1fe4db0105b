// Package trace is the benchmark's in-memory span recorder. Code in
// benchmark/ marks timestamped points on sampled frames at the boundaries
// it can see from outside the program — around calls into a layer's
// exported functions and inside the net.Conn wrappers handed to them — and
// Build turns the points of one frame into a chain of spans. Nothing here
// reaches into the program under test.
package trace

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Point names one boundary a frame crosses.
type Point uint8

const (
	// Gen is the frame's generation stamp. It is never marked: the frame
	// id is the stamp itself, so every chain starts there.
	Gen       Point = iota
	PubStart        // PublishAt entered (benchmark-driven ExternalSource hub)
	PubEnd          // PublishAt returned
	SinkIn          // a sink's Write/WriteBuffers entered with the frame
	SinkOut         // that call returned
	WriteIn         // core sender entered Write on the wrapped server-side conn
	ReadDone        // wrapped client-side conn returned the frame's last byte
	Delivered       // Receiver.OnPacket ran for the frame
	OriginIn        // tree: the frame entered the origin-direct probe sink
	numPoints
)

// Shared is the Who of a point that belongs to the frame, not to one
// subscriber: publishing, the origin probe.
const Shared int32 = -1

// Event is one marked point.
type Event struct {
	Frame int64 // generation stamp, UnixNano — the frame's identity at every tier
	At    int64 // UnixNano
	Who   int32 // subscriber or path id, or Shared
	Point Point
}

// Recorder collects events while it is on. A nil Recorder samples nothing,
// so untraced runs pay one nil check per write.
type Recorder struct {
	every uint64 // sample one frame in every
	on    atomic.Bool

	mu     sync.Mutex
	events []Event
}

// NewRecorder returns a recorder that samples one frame in every (a power
// of two), switched off.
func NewRecorder(every int) *Recorder {
	return &Recorder{every: uint64(every)}
}

// Enable switches recording on or off.
func (r *Recorder) Enable(on bool) { r.on.Store(on) }

// Sampled reports whether points of this frame should be marked. The
// choice hashes the generation stamp, so every tier and every subscriber
// picks the same frames without coordinating.
func (r *Recorder) Sampled(frame int64) bool {
	if r == nil || !r.on.Load() {
		return false
	}
	return (uint64(frame)*0x9E3779B97F4A7C15)>>40%r.every == 0
}

// Mark records one point of a sampled frame.
func (r *Recorder) Mark(frame int64, p Point, at int64, who int32) {
	r.mu.Lock()
	r.events = append(r.events, Event{Frame: frame, At: at, Who: who, Point: p})
	r.mu.Unlock()
}

// Events returns what has been recorded so far.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// Stage is one span of a chain: the time a frame spends between two
// points.
type Stage struct {
	Name     string
	From, To Point
}

// Span is one timed interval of one frame.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a chain's root
	Name   string `json:"name"`
	Frame  int64  `json:"frame"`
	Who    int32  `json:"who"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // duration minus the part child spans cover
}

// Dur returns the span's duration in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Build assembles one chain per (frame, subscriber): a root span named
// root from the generation stamp to the end of the last stage seen, and
// one child per stage whose two points were both marked. A stage looks
// its points up on the subscriber first and on the frame's shared points
// second. A stage that ends before it starts (the sender ran before
// PublishAt returned) is clamped to zero length.
func Build(events []Event, root string, stages []Stage) []Span {
	type times [numPoints]int64
	type key struct {
		frame int64
		who   int32
	}
	at := make(map[key]*times)
	var keys []key
	for _, e := range events {
		k := key{e.Frame, e.Who}
		t := at[k]
		if t == nil {
			t = new(times)
			at[k] = t
			keys = append(keys, k)
		}
		t[e.Point] = e.At
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].frame != keys[j].frame {
			return keys[i].frame < keys[j].frame
		}
		return keys[i].who < keys[j].who
	})
	hasSubscribers := false
	for _, k := range keys {
		if k.who != Shared {
			hasSubscribers = true
			break
		}
	}
	var spans []Span
	for _, k := range keys {
		if hasSubscribers && k.who == Shared {
			continue // folded into each subscriber's chain below
		}
		own, shared := at[k], at[key{k.frame, Shared}]
		lookup := func(p Point) (int64, bool) {
			if p == Gen {
				return k.frame, true
			}
			if own[p] != 0 {
				return own[p], true
			}
			if shared != nil && shared[p] != 0 {
				return shared[p], true
			}
			return 0, false
		}
		rootID := len(spans)
		spans = append(spans, Span{ID: rootID, Parent: -1, Name: root, Frame: k.frame, Who: k.who, Start: k.frame, End: k.frame})
		var covered int64
		for _, st := range stages {
			from, ok1 := lookup(st.From)
			to, ok2 := lookup(st.To)
			if !ok1 || !ok2 {
				continue
			}
			if to < from {
				to = from
			}
			spans = append(spans, Span{ID: len(spans), Parent: rootID, Name: st.Name, Frame: k.frame, Who: k.who, Start: from, End: to, Self: to - from})
			covered += to - from
			if to > spans[rootID].End {
				spans[rootID].End = to
			}
		}
		if len(spans) == rootID+1 {
			spans = spans[:rootID] // no stage completed: nothing to report
			continue
		}
		spans[rootID].Self = spans[rootID].Dur() - covered
	}
	return spans
}

// Durations returns the durations, in nanoseconds, of every span named
// name.
func Durations(spans []Span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.Dur()))
		}
	}
	return out
}
