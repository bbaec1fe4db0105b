package core

import (
	"reflect"
	"testing"
)

// TestQueuedRetainsNoPayloadAliases pins the buffer-ownership contract
// on the core resend path: the shared queue and the per-path resend
// ring both store queued metadata (packet number + generation stamp)
// and regenerate bytes through Config.Fill at write time, so there is
// no retained payload to go stale when a path dies and its window is
// requeued. A payload alias added to queued would silently survive
// requeue/unroll and replay whatever the buffer holds by then — the
// use-after-handoff bug the hub's payload alias scan counts — so
// the element type is pinned reference-free here. (internal/hub
// counts such aliases at run time instead: TestPayloadAliasScan.)
func TestQueuedRetainsNoPayloadAliases(t *testing.T) {
	qt := reflect.TypeOf(queued{})
	for i := 0; i < qt.NumField(); i++ {
		f := qt.Field(i)
		switch k := f.Type.Kind(); k {
		case reflect.Slice, reflect.Ptr, reflect.Map, reflect.Chan, reflect.UnsafePointer, reflect.Interface, reflect.String:
			t.Errorf("queued.%s is a %v: the resend ring must hold metadata only, never payload aliases", f.Name, k)
		}
	}

	// unroll must return the same metadata values, not references into
	// a buffer that the ring keeps overwriting.
	ring := []queued{{pkt: 5}, {pkt: 3}, {pkt: 4}}
	got := unroll(ring, 7)
	if len(got) != 3 || got[0].pkt != 3 || got[1].pkt != 4 || got[2].pkt != 5 {
		t.Fatalf("unroll order wrong: %v", got)
	}
}
