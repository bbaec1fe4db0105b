package hub

import (
	"reflect"
	"sort"
	"unsafe"
)

// Payload alias scan. A ring slot's buffer is lent to writev without a
// copy and recycled once the last pin drops, so a slice into it that
// outlives the lease reads another packet's bytes (or the pool's poison)
// the next time the buffer is published. Nothing at the type level stops
// that: the slice may be a []byte, a [][]byte slot, or any slice re-typed
// over the same memory. The scan therefore looks at addresses. On a
// PoisonPool hub the pool keeps every buffer it made, and PoolCheck walks
// everything that outlives a write — each free batch, each subscriber,
// each path no worker holds — counting the slices whose backing array
// starts inside one of those buffers.

// span is one pool buffer's memory, [lo, hi).
type span struct{ lo, hi uintptr }

// scanStop are the types a scanned record points to but does not own:
// the hub and its shards, the records walked on their own, and the
// connection. Pointers to anything else, payload buffers included, are
// followed, so a stale pin counts too. A batch's inline frame is skipped
// as a field: the batch's slices reach it, and it must count once.
var scanStop = map[reflect.Type]bool{
	reflect.TypeFor[*Hub]():        true,
	reflect.TypeFor[*shard]():      true,
	reflect.TypeFor[*subscriber](): true,
	reflect.TypeFor[*path]():       true,
	reflect.TypeFor[*batch]():      true,
	reflect.TypeFor[oneFrame]():    true,
}

// payloadAliases counts the slices held by a free batch, a subscriber or a
// path no worker holds whose backing array starts inside a pool buffer.
// Only a poisoning pool keeps its buffers to scan against. Takes the pool
// lock once, then each shard lock in turn.
func (h *Hub) payloadAliases() int64 {
	spans := h.pool.spans()
	var n int64
	for _, sd := range h.shards {
		sd.mu.Lock()
		for b := sd.free; b != nil; b = b.next {
			n += aliasesIn(reflect.ValueOf(b).Elem(), spans)
		}
		for _, sub := range sd.subs {
			n += aliasesIn(reflect.ValueOf(sub).Elem(), spans)
			for _, p := range sub.links {
				if !p.held { // a held path's record belongs to its worker
					n += aliasesIn(reflect.ValueOf(p).Elem(), spans)
				}
			}
		}
		sd.mu.Unlock()
	}
	return n
}

// aliasesIn counts the slices reachable from v, through fields, elements
// and owned pointers, that start inside a span. Interfaces, maps, channels
// and functions are not followed.
func aliasesIn(v reflect.Value, spans []span) (n int64) {
	switch v.Kind() {
	case reflect.Struct:
		if scanStop[v.Type()] {
			return 0
		}
		for i := 0; i < v.NumField(); i++ {
			n += aliasesIn(v.Field(i), spans)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			n += aliasesIn(v.Index(i), spans)
		}
	case reflect.Slice:
		if v.Cap() > 0 && inSpans(v.Pointer(), spans) {
			n++
		}
		switch v.Type().Elem().Kind() {
		case reflect.Struct, reflect.Array, reflect.Slice, reflect.Pointer:
			for i := 0; i < v.Len(); i++ {
				n += aliasesIn(v.Index(i), spans)
			}
		}
	case reflect.Pointer:
		if !v.IsNil() && !scanStop[v.Type()] {
			n += aliasesIn(v.Elem(), spans)
		}
	}
	return n
}

// inSpans reports whether p lies in one of the sorted spans.
func inSpans(p uintptr, spans []span) bool {
	i := sort.Search(len(spans), func(i int) bool { return spans[i].hi > p })
	return i < len(spans) && spans[i].lo <= p
}

// spans returns the memory of every buffer a poisoning pool has made,
// sorted by address.
func (p *bufPool) spans() []span {
	p.mu.Lock()
	out := make([]span, 0, len(p.all))
	for _, pb := range p.all {
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(pb.data)))
		out = append(out, span{lo, lo + uintptr(len(pb.data))})
	}
	p.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].lo < out[j].lo })
	return out
}
