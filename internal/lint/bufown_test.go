package lint

import (
	"go/parser"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRepoBorrowChain is the acceptance pin: over the real module, the
// borrow graph must cover the ring-slot → pin → writev chain — the slot
// payload is borrowed at publish and at the ring.pin/pinBatch calls, the
// pinned buffers reach the connection through Hub.writeBatch, and a
// rendered frame leaves the process only through the conn.Write sink, on
// both the hub and the core send paths.
func TestRepoBorrowChain(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, module, err := Load(root)
	if err != nil {
		t.Fatal(err)
	}
	idx := BuildIndex(module, pkgs)
	edges := map[string]bool{}
	for _, e := range BufGraph(idx) {
		edges[e.From+" -"+e.Kind+"-> "+e.To] = true
	}
	for _, want := range []string{
		"dmpstream/internal/hub.slot.payload -borrow-> dmpstream/internal/hub.ring.pin",
		"dmpstream/internal/hub.slot.payload -borrow-> dmpstream/internal/hub.ring.pinBatch",
		"dmpstream/internal/hub.payloadBuf.data -borrow-> dmpstream/internal/hub.Hub.writeBatch",
		"dmpstream/internal/hub.slot.payload -borrow-> dmpstream/internal/hub.ring.publish",
		"dmpstream/internal/hub.Hub.writeFrame -sink-> net.Conn.Write",
		"dmpstream/internal/core.Session.writeFrame -sink-> net.Conn.Write",
	} {
		if !edges[want] {
			t.Errorf("borrow graph missing edge %s (have %v)", want, edges)
		}
	}

	dot := BufGraphDot(idx)
	if !strings.HasPrefix(dot, "digraph bufown {") {
		t.Fatalf("unexpected dot prologue:\n%s", dot)
	}
	for _, want := range []string{
		`"internal/hub.slot.payload" -> "internal/hub.ring.pinBatch" [label="borrow"]`,
		`"internal/hub.Hub.writeFrame" -> "net.Conn.Write" [label="sink"`,
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("bufgraph dot missing %q:\n%s", want, dot)
		}
	}
}

// TestBufGraphFixtureEdges checks each edge kind over the bufown
// fixture: field borrows, lends into borrowed params, release-by
// sanctioned stores, and handoffs into module and builtin sinks.
func TestBufGraphFixtureEdges(t *testing.T) {
	pkg, _ := loadFixture(t, "bufown")
	idx := BuildIndex("fixture", []*Package{pkg})
	edges := map[string]bool{}
	for _, e := range BufGraph(idx) {
		edges[e.From+" -"+e.Kind+"-> "+e.To] = true
	}
	for _, want := range []string{
		"fixture.slotx.payload -borrow-> fixture.ringx.render",
		"fixture.process -lend-> fixture.inspect",
		"fixture.rebase -lend-> fixture.view",
		"fixture.cache.adopt -store-> fixture.cache.slot",
		"fixture.holder.retain -store-> fixture.holder.ref",
		"fixture.transmit -sink-> fixture.deliver",
		"fixture.transmit -sink-> net.Conn.Write",
	} {
		if !edges[want] {
			t.Errorf("fixture borrow graph missing edge %s (have %v)", want, edges)
		}
	}
}

// TestRepoSeededMutation pins the enforcement half of the acceptance
// criterion: seeding a borrowed-slice mutation into the hub's write
// path must fail the lint gate.
func TestRepoSeededMutation(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, module, err := Load(root)
	if err != nil {
		t.Fatal(err)
	}
	var hub *Package
	for _, pkg := range pkgs {
		if pkg.ImportPath == module+"/internal/hub" {
			hub = pkg
		}
	}
	if hub == nil {
		t.Fatal("no internal/hub package")
	}
	src, err := os.ReadFile(filepath.Join(root, "internal/hub/hub.go"))
	if err != nil {
		t.Fatal(err)
	}
	const anchor = "_, err := conn.Write(frame)"
	seeded := strings.Replace(string(src), anchor, "frame[0] = 0\n\t"+anchor, 1)
	if seeded == string(src) {
		t.Fatalf("anchor %q not found in hub.go", anchor)
	}
	af, err := parser.ParseFile(hub.Fset, "internal/hub/hub.go", seeded, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range hub.Files {
		if f.Path == "internal/hub/hub.go" {
			hub.Files[i] = NewFile(f.Path, af)
		}
	}
	idx := BuildIndex(module, pkgs)
	findings := Run([]*Package{hub}, idx, []*Analyzer{Bufown()})
	found := false
	for _, f := range findings {
		found = found || strings.Contains(f.Message, "writes into borrowed slice")
	}
	if !found {
		t.Errorf("seeded borrowed-slice mutation not convicted (findings: %v)", findings)
	}
}
