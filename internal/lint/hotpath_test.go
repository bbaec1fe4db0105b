package lint

import (
	"strings"
	"testing"
)

// closureMap builds key → entry from a dump.
func closureMap(d *HotpathDump) map[string]HotpathEntry {
	m := map[string]HotpathEntry{}
	for _, e := range d.Closure {
		m[e.Func] = e
	}
	return m
}

// TestHotpathClosureFixture pins the closure mechanics on the fixture
// package: marker detection, transitive method resolution, via chains,
// the nolint edge cut, and cycle termination.
func TestHotpathClosureFixture(t *testing.T) {
	pkg, _ := loadFixture(t, "hotpath")
	idx := BuildIndex("fixture", []*Package{pkg})
	d := Hotpaths(idx)

	wantRoots := []string{
		"fixture.hub.generate", "fixture.hub.sendLoop",
		"fixture.recurA", "fixture.ring.frame",
	}
	if got := strings.Join(d.Roots, " "); got != strings.Join(wantRoots, " ") {
		t.Fatalf("roots = %v, want %v", d.Roots, wantRoots)
	}

	m := closureMap(d)
	for _, key := range []string{
		"fixture.ring.advance", "fixture.shard.wakeup", "fixture.ring.frame",
		"fixture.hub.pop", "fixture.encode", "fixture.recurB",
	} {
		if _, ok := m[key]; !ok {
			t.Errorf("closure is missing %s", key)
		}
	}
	for _, key := range []string{"fixture.hub.setup", "fixture.notHot"} {
		if _, ok := m[key]; ok {
			t.Errorf("closure wrongly contains %s", key)
		}
	}

	// The via chain records the discovery path from a root.
	if via := m["fixture.ring.advance"].Via; strings.Join(via, " ") != "fixture.hub.generate" {
		t.Errorf("advance via = %v, want [fixture.hub.generate]", via)
	}
	if via := m["fixture.encode"].Via; strings.Join(via, " ") != "fixture.hub.sendLoop fixture.hub.pop" {
		t.Errorf("encode via = %v, want sendLoop -> pop", via)
	}
	if !m["fixture.ring.frame"].CopyPoint {
		t.Errorf("ring.frame should carry the copy-point designation")
	}
	if m["fixture.hub.pop"].Root {
		t.Errorf("hub.pop is transitively hot, not a root")
	}

	// The text rendering mentions every closure member and the cut edge
	// stays absent.
	text := d.Text("fixture")
	for _, want := range []string{"hub.generate", "ring.frame", "[root, copy-point]", "via hub.sendLoop -> hub.pop"} {
		if !strings.Contains(text, want) {
			t.Errorf("text dump missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "setup") {
		t.Errorf("text dump contains the nolint-cut setup edge:\n%s", text)
	}
}

// TestRepoHotpathChain is the acceptance pin: over the real module, the
// annotated roots must transitively cover the ring-advance → shard
// wakeup → sender write loop → frame encode chain without any of those
// callees being annotated themselves.
func TestRepoHotpathChain(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, module, err := Load(root)
	if err != nil {
		t.Fatal(err)
	}
	idx := BuildIndex(module, pkgs)
	d := Hotpaths(idx)
	m := closureMap(d)

	roots := map[string]bool{}
	for _, r := range d.Roots {
		roots[r] = true
	}
	for _, want := range []string{
		"dmpstream/internal/hub.Hub.generate",
		"dmpstream/internal/hub.shard.work",
		"dmpstream/internal/core.Server.generate",
		"dmpstream/internal/core.Session.sendLoop",
		"dmpstream/internal/registry.Registry.Route",
	} {
		if !roots[want] {
			t.Errorf("expected hotpath root %s (have %v)", want, d.Roots)
		}
	}

	// Transitive coverage: none of these carry their own marker; they
	// must be reached through the call graph.
	for key, wantRoot := range map[string]bool{
		"dmpstream/internal/hub.ring.publish":           false, // generate → ring advance
		"dmpstream/internal/hub.shard.wake":             false, // generate → shard wakeup
		"dmpstream/internal/hub.pathList.take":          false, // wake → parked paths woken in one splice
		"dmpstream/internal/hub.shard.enforceLagLocked": false, // wake / popBatchLocked → lag policy on the subscribers behind
		"dmpstream/internal/hub.shard.behindLocked":     false, // generate → governLocked → accountLocked → walk of the subscribers behind
		"dmpstream/internal/hub.shard.kickLocked":       false, // wake / work → signal the idle worker
		"dmpstream/internal/hub.shard.parkLocked":       false, // work → stepLocked → nothing to send
		"dmpstream/internal/hub.shard.popBatchLocked":   false, // work → stepLocked → lag policy + lease + fill
		"dmpstream/internal/hub.ring.pinBatch":          false, // popBatchLocked → fillLocked → pin
		"dmpstream/internal/hub.Hub.writeBatch":         false, // work → header patch + writev
		"dmpstream/internal/core.PutFrameHeader":        false, // writeBatch → frame encode
		"dmpstream/internal/core.Server.pop":            false,

		"dmpstream/internal/hub.payloadBuf.fillFrom": true, // copy-point marker makes it a root too
	} {
		e, ok := m[key]
		if !ok {
			t.Errorf("hot closure is missing %s", key)
			continue
		}
		if e.Root != wantRoot {
			t.Errorf("%s: root = %v, want %v", key, e.Root, wantRoot)
		}
	}
	if !m["dmpstream/internal/hub.payloadBuf.fillFrom"].CopyPoint {
		t.Errorf("hub.payloadBuf.fillFrom must be the designated copy point")
	}
}
