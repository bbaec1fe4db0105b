package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// declFunc narrows a declaration to a function with a body.
func declFunc(decl ast.Decl) (*ast.FuncDecl, bool) {
	fd, ok := decl.(*ast.FuncDecl)
	return fd, ok && fd.Body != nil
}

// Lockorder builds a whole-program lock-acquisition graph and reports any
// cycle as a potential deadlock. An edge A→B means some function acquires
// mutex B while holding mutex A (per the lexical lock intervals of
// lockstate.go); mutexes are identified globally by owner type and field
// ("hub.Hub.mu") or by package-level var, so the graph spans packages. A
// cycle whose acquisitions are all read-side (RLock held while RLock-ing)
// is not reported — concurrent readers coexist, so the read-only cycle
// cannot deadlock on its own.
//
// Besides direct acquisitions, the graph propagates one level of calls: a
// call made while a mutex is held orders that mutex before every mutex
// the callee's own body locks (registry.Route holding the registry lock
// while Hub.HasSubscriber takes a shard lock). The summary is one level
// deep and direct only — callee literals are excluded (they typically
// escape to other goroutines), go-statement targets run without the
// caller's locks, and same-node edges are skipped because the graph
// cannot tell two instances of one field apart (lexical reentrancy is
// still caught).
//
// Each cycle is reported once, anchored at its lexically-first edge. The
// full graph is exported as Graphviz dot via `dmplint -lockgraph`; the
// repo's intended hierarchy is documented in DESIGN.md §7.
func Lockorder() *Analyzer {
	return &Analyzer{
		Name: "lockorder",
		Run:  runLockorder,
	}
}

// lockEdge is one held→acquired pair in the global graph, anchored at its
// first occurrence.
type lockEdge struct {
	From, To         string // global mutex identities
	FromRead, ToRead bool   // read-side hold / acquisition

	file *File
	pkg  *Package
	pos  token.Pos
	fn   string // function establishing the edge, for the dot label
}

func (e *lockEdge) key() string {
	return e.From + modeSuffix(e.FromRead) + "->" + e.To + modeSuffix(e.ToRead)
}

func modeSuffix(read bool) string {
	if read {
		return "[R]"
	}
	return "[W]"
}

// concIndex is the lazily computed whole-program lock-order graph.
type concIndex struct {
	edges  []*lockEdge   // deterministic order: package walk, file, position
	cycles [][]*lockEdge // simple cycles, deduped, lexically-first edge first
}

// conc computes the whole-program pass once per Index.
func (idx *Index) conc() *concIndex {
	idx.concOnce.Do(func() {
		c := &concIndex{}
		c.buildLockGraph(idx)
		c.cycles = findLockCycles(c.edges)
		idx.concIdx = c
	})
	return idx.concIdx
}

// callAcq is one mutex acquisition a function performs directly in its
// own body — the unit of the one-level call summaries the graph
// propagates to call sites.
type callAcq struct {
	node string
	read bool
}

// summaryKey names a declaration the way call sites can resolve it:
// "pkg.Type.method" for methods, "pkg.func" for plain functions. Generic
// and unresolvable receivers yield "".
func summaryKey(pkg *Package, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return pkg.ImportPath + "." + fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	id, ok := t.(*ast.Ident)
	if !ok {
		return ""
	}
	return pkg.ImportPath + "." + id.Name + "." + fd.Name.Name
}

// buildCallSummaries indexes, for every function in the module, the
// module-global mutexes its declaration body acquires directly. Function
// literals are excluded: they typically escape (go statements, callbacks)
// and so do not run under a caller's locks.
func buildCallSummaries(idx *Index) map[string][]callAcq {
	sums := map[string][]callAcq{}
	for _, pkg := range idx.pkgs {
		for _, file := range pkg.Files {
			if file.Test {
				continue
			}
			for _, decl := range file.AST.Decls {
				fd, ok := declFunc(decl)
				if !ok {
					continue
				}
				key := summaryKey(pkg, fd)
				if key == "" {
					continue
				}
				e := funcEnv(idx, pkg, file, fd)
				// collectLockScopes puts the declaration body first.
				body := collectLockScopes(e, fd)[0]
				dup := map[string]bool{}
				for _, ev := range body.events {
					if !ev.acquire || ev.node == "" || dup[ev.node+modeSuffix(ev.read)] {
						continue
					}
					dup[ev.node+modeSuffix(ev.read)] = true
					sums[key] = append(sums[key], callAcq{node: ev.node, read: ev.read})
				}
			}
		}
	}
	return sums
}

// scopeCall is one resolvable call made inside a lock scope.
type scopeCall struct {
	pos  token.Pos
	name string // callee's short name, for the dot label
	key  string // summary key
}

// collectScopeCalls finds the calls in sc's body whose callee summary the
// graph can charge to the caller's held set: same-package function calls
// and method calls with a resolvable receiver type (which works across
// packages). Nested literals are separate scopes and go-statement targets
// run without the caller's locks, so both are skipped.
func collectScopeCalls(e *env, sc *lockScope) []scopeCall {
	var out []scopeCall
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			for _, arg := range n.Call.Args {
				ast.Inspect(arg, walk)
			}
			return false
		case *ast.CallExpr:
			switch fun := n.Fun.(type) {
			case *ast.Ident:
				out = append(out, scopeCall{
					pos: n.Pos(), name: fun.Name,
					key: e.pkg.ImportPath + "." + fun.Name,
				})
			case *ast.SelectorExpr:
				if base := e.typeOf(fun.X); base != nil && base.Path != "" {
					out = append(out, scopeCall{
						pos: n.Pos(), name: fun.Sel.Name,
						key: base.Path + "." + base.Name + "." + fun.Sel.Name,
					})
				}
			}
		}
		return true
	}
	ast.Inspect(sc.body, walk)
	return out
}

// buildLockGraph derives edges from every function's lock scopes: for
// each acquisition — direct, or via a one-level call summary — every
// other mutex with a held interval covering the acquisition point
// contributes an edge.
func (c *concIndex) buildLockGraph(idx *Index) {
	sums := buildCallSummaries(idx)
	seen := map[string]*lockEdge{}
	addEdge := func(edge *lockEdge) {
		if _, dup := seen[edge.key()]; !dup {
			seen[edge.key()] = edge
			c.edges = append(c.edges, edge)
		}
	}
	for _, pkg := range idx.pkgs {
		for _, file := range pkg.Files {
			if file.Test {
				continue
			}
			for _, decl := range file.AST.Decls {
				fd, ok := declFunc(decl)
				if !ok {
					continue
				}
				e := funcEnv(idx, pkg, file, fd)
				for _, sc := range collectLockScopes(e, fd) {
					for _, ev := range sc.events {
						if !ev.acquire || ev.node == "" {
							continue
						}
						for node, ivs := range sc.byNode {
							for _, iv := range ivs {
								if !iv.covers(ev.pos) || iv.start == ev.pos {
									continue
								}
								addEdge(&lockEdge{
									From: node, FromRead: iv.read,
									To: ev.node, ToRead: ev.read,
									file: file, pkg: pkg, pos: ev.pos, fn: sc.fnName,
								})
							}
						}
					}
					for _, call := range collectScopeCalls(e, sc) {
						for _, acq := range sums[call.key] {
							for node, ivs := range sc.byNode {
								if node == acq.node {
									// Instances of one field are indistinguishable
									// here; lexical reentrancy is caught above.
									continue
								}
								for _, iv := range ivs {
									if !iv.covers(call.pos) {
										continue
									}
									addEdge(&lockEdge{
										From: node, FromRead: iv.read,
										To: acq.node, ToRead: acq.read,
										file: file, pkg: pkg, pos: call.pos,
										fn: sc.fnName + " -> " + call.name,
									})
								}
							}
						}
					}
				}
			}
		}
	}
	// byNode map iteration can interleave edges discovered at the same
	// acquisition point in any order; sort for a stable edge list.
	sort.Slice(c.edges, func(i, j int) bool {
		a, b := c.edges[i], c.edges[j]
		if a.file.Path != b.file.Path {
			return a.file.Path < b.file.Path
		}
		if a.pos != b.pos {
			return a.pos < b.pos
		}
		return a.key() < b.key()
	})
}

// findLockCycles enumerates the simple cycles of the edge set, each
// exactly once. Cycles made purely of read-side acquisitions are
// filtered. The edge list of each cycle starts at its lexically-first
// edge so reporting is deterministic.
func findLockCycles(edges []*lockEdge) [][]*lockEdge {
	adj := map[string][]*lockEdge{}
	var nodes []string
	nodeSeen := map[string]bool{}
	for _, e := range edges {
		adj[e.From] = append(adj[e.From], e)
		for _, n := range []string{e.From, e.To} {
			if !nodeSeen[n] {
				nodeSeen[n] = true
				nodes = append(nodes, n)
			}
		}
	}
	sort.Strings(nodes)
	for _, l := range adj {
		sort.Slice(l, func(i, j int) bool { return l[i].key() < l[j].key() })
	}

	var cycles [][]*lockEdge
	cycleSeen := map[string]bool{}
	const maxCycles = 64 // runaway guard; real modules have a handful of mutexes

	// DFS from each start node, visiting only nodes >= start so every
	// cycle is found from its smallest node exactly once.
	for _, start := range nodes {
		var path []*lockEdge
		onPath := map[string]int{start: 0}
		var dfs func(node string)
		dfs = func(node string) {
			if len(cycles) >= maxCycles {
				return
			}
			for _, e := range adj[node] {
				if e.To < start {
					continue
				}
				if i, ok := onPath[e.To]; ok {
					cyc := append(append([]*lockEdge{}, path[i:]...), e)
					if sig := cycleSig(cyc); !cycleSeen[sig] {
						cycleSeen[sig] = true
						if !readOnlyCycle(cyc) {
							cycles = append(cycles, anchorFirst(cyc))
						}
					}
					continue
				}
				onPath[e.To] = len(path) + 1
				path = append(path, e)
				dfs(e.To)
				path = path[:len(path)-1]
				delete(onPath, e.To)
			}
		}
		dfs(start)
	}
	sort.Slice(cycles, func(i, j int) bool {
		a, b := cycles[i][0], cycles[j][0]
		if a.file.Path != b.file.Path {
			return a.file.Path < b.file.Path
		}
		return a.pos < b.pos
	})
	return cycles
}

// cycleSig canonicalizes a cycle's edge list by rotating the smallest
// edge key first, so the same cycle found from different entry points
// dedupes.
func cycleSig(cyc []*lockEdge) string {
	min := 0
	for i := range cyc {
		if cyc[i].key() < cyc[min].key() {
			min = i
		}
	}
	var b strings.Builder
	for i := range cyc {
		b.WriteString(cyc[(min+i)%len(cyc)].key())
		b.WriteByte(';')
	}
	return b.String()
}

func readOnlyCycle(cyc []*lockEdge) bool {
	for _, e := range cyc {
		if !e.FromRead || !e.ToRead {
			return false
		}
	}
	return true
}

// anchorFirst rotates the cycle so its lexically-first edge leads.
func anchorFirst(cyc []*lockEdge) []*lockEdge {
	min := 0
	for i, e := range cyc {
		m := cyc[min]
		if e.file.Path < m.file.Path || (e.file.Path == m.file.Path && e.pos < m.pos) {
			min = i
		}
	}
	out := make([]*lockEdge, 0, len(cyc))
	for i := range cyc {
		out = append(out, cyc[(min+i)%len(cyc)])
	}
	return out
}

func runLockorder(pkg *Package, idx *Index) []Finding {
	var out []Finding
	for _, cyc := range idx.conc().cycles {
		anchor := cyc[0]
		if anchor.pkg != pkg {
			continue
		}
		out = append(out, finding(anchor.file, anchor.pos, "lockorder",
			"potential deadlock: lock-order cycle %s (run dmplint -lockgraph for the full graph)",
			describeCycle(idx.Module, cyc)))
	}
	return out
}

// describeCycle renders "A →(Lock) B →(RLock) A" with module-trimmed
// mutex names.
func describeCycle(module string, cyc []*lockEdge) string {
	var b strings.Builder
	b.WriteString(trimModule(module, cyc[0].From))
	for _, e := range cyc {
		op := "Lock"
		if e.ToRead {
			op = "RLock"
		}
		fmt.Fprintf(&b, " ->(%s) %s", op, trimModule(module, e.To))
	}
	return b.String()
}

func trimModule(module, node string) string {
	return strings.TrimPrefix(strings.TrimPrefix(node, module+"/"), module+".")
}

// LockGraphDot renders the whole-program lock-acquisition graph as
// Graphviz dot. Edges participating in a cycle are drawn red; the output
// is deterministic (sorted nodes and edges) so it can be diffed across
// commits.
func LockGraphDot(idx *Index) string {
	c := idx.conc()
	inCycle := map[string]bool{}
	for _, cyc := range c.cycles {
		for _, e := range cyc {
			inCycle[e.key()] = true
		}
	}
	nodeSet := map[string]bool{}
	for _, e := range c.edges {
		nodeSet[e.From] = true
		nodeSet[e.To] = true
	}
	var nodes []string
	for n := range nodeSet {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	edges := append([]*lockEdge{}, c.edges...)
	sort.Slice(edges, func(i, j int) bool { return edges[i].key() < edges[j].key() })

	var b strings.Builder
	b.WriteString("digraph lockorder {\n")
	b.WriteString("  rankdir=LR;\n")
	b.WriteString("  node [shape=box, fontname=\"monospace\"];\n")
	for _, n := range nodes {
		fmt.Fprintf(&b, "  %q;\n", trimModule(idx.Module, n))
	}
	for _, e := range edges {
		heldOp, acqOp := "Lock", "Lock"
		if e.FromRead {
			heldOp = "RLock"
		}
		if e.ToRead {
			acqOp = "RLock"
		}
		attrs := fmt.Sprintf("label=\"%s->%s\\n%s (%s)\"", heldOp, acqOp, e.file.Path, e.fn)
		if inCycle[e.key()] {
			attrs += ", color=red, fontcolor=red"
		}
		fmt.Fprintf(&b, "  %q -> %q [%s];\n",
			trimModule(idx.Module, e.From), trimModule(idx.Module, e.To), attrs)
	}
	b.WriteString("}\n")
	return b.String()
}
