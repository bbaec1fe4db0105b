// Hot-path discipline: the `// hotpath` annotation and the transitive
// call-graph closure the hotalloc analyzer polices.
//
// A function whose doc comment contains a line beginning with the word
// `hotpath` declares itself a per-frame hot-path root: everything the
// function does in steady state happens once per frame (or more), so
// heap allocations inside it are throughput bugs, not style nits. The
// rest of the marker line is prose:
//
//	// hotpath — ring advance, runs once per generated frame.
//
// The discipline is transitive: the closure is computed to a fixed point
// with a cycle guard, so the analyzer follows the real call graph — hub ring
// advance → shard wakeup → sender write loop → frame encode — without
// requiring every link to be annotated. Only module-internal calls are
// followed (bare identifiers, pkg-qualified functions via the file's
// import table, and methods via the best-effort receiver types of
// types.go); unresolvable callees are silently not followed, per the
// suite's "unknown: stay quiet" convention.
//
// Two escapes exist. Statements inside early-exit branches — an if body
// or select/switch case that ends in return/break/panic (the
// stmtsTerminate predicate of lockstate.go) — are cold: error handling
// and teardown may allocate freely. And a call line carrying
// `// nolint:hotpath reason` (or nolint:hotalloc, so one comment covers
// both the finding and the edge) cuts the closure edge: per-path setup
// calls made once before the per-frame loop stay out of the hot set.
package lint

import (
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

func trimModule(module, node string) string {
	return strings.TrimPrefix(strings.TrimPrefix(node, module+"/"), module+".")
}

// hotFunc is one function in the module-wide declaration index.
type hotFunc struct {
	key  string
	pkg  *Package
	file *File
	fd   *ast.FuncDecl
	root bool     // carries a `// hotpath` doc marker
	via  []string // discovery chain from a root (empty for roots)
}

// hotIndex is the lazily computed hot-path state.
type hotIndex struct {
	funcs map[string]*hotFunc // every declared function, by summaryKey
	hot   map[string]*hotFunc // transitive closure of the annotated roots
	roots []string            // sorted root keys
}

// hot computes the hot-path closure once per Index.
func (idx *Index) hot() *hotIndex {
	idx.hotOnce.Do(func() {
		idx.hotIdx = buildHotIndex(idx)
	})
	return idx.hotIdx
}

// hotpathMarker scans a doc comment for the annotation. A line counts
// when its first word (after stripping the comment marker) is exactly
// "hotpath", so prose mentioning hot paths does not annotate.
func hotpathMarker(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, line := range strings.Split(doc.Text(), "\n") {
		if fields := strings.Fields(line); len(fields) > 0 && fields[0] == "hotpath" {
			return true
		}
	}
	return false
}

// buildHotIndex indexes every declared function, finds the annotated
// roots, and runs a breadth-first closure over resolvable calls made in
// hot regions. BFS order means each function's recorded via chain is a
// shortest call path from some root — the chain `dmplint -hotpaths`
// prints. The visited set doubles as the cycle guard: recursive and
// mutually recursive call graphs terminate because a function enters the
// hot set at most once.
func buildHotIndex(idx *Index) *hotIndex {
	h := &hotIndex{funcs: map[string]*hotFunc{}, hot: map[string]*hotFunc{}}
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
				if key == "" || h.funcs[key] != nil {
					continue
				}
				h.funcs[key] = &hotFunc{key: key, pkg: pkg, file: file, fd: fd, root: hotpathMarker(fd.Doc)}
			}
		}
	}

	var queue []*hotFunc
	for _, fn := range h.funcs {
		if fn.root {
			h.hot[fn.key] = fn
			h.roots = append(h.roots, fn.key)
			queue = append(queue, fn)
		}
	}
	sort.Strings(h.roots)
	sort.Slice(queue, func(i, j int) bool { return queue[i].key < queue[j].key })

	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, key := range hotCallees(idx, fn) {
			callee, ok := h.funcs[key]
			if !ok || h.hot[key] != nil {
				continue // unresolved, external, or already visited (cycle guard)
			}
			callee.via = append(append([]string{}, fn.via...), fn.key)
			h.hot[key] = callee
			queue = append(queue, callee)
		}
	}
	return h
}

// hotCallees resolves the calls fn makes in its hot regions to summary
// keys, deduplicated and sorted for deterministic BFS order. Function
// literals and go/defer targets are skipped (they escape the per-frame
// control flow — the literal or spawn itself is hotalloc's finding), and
// a call line under nolint:hotpath/hotalloc cuts the edge.
func hotCallees(idx *Index, fn *hotFunc) []string {
	e := funcEnv(idx, fn.pkg, fn.file, fn.fd)
	cold := coldIntervals(fn.fd.Body)
	cut := nolintLines(fn.pkg.Fset, fn.file, "hotpath", "hotalloc")
	seen := map[string]bool{}
	var out []string
	add := func(key string) {
		if key != "" && !seen[key] {
			seen[key] = true
			out = append(out, key)
		}
	}
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt, *ast.DeferStmt:
			return false
		case *ast.CallExpr:
			if cold.covers(n.Pos()) || cut[fn.pkg.Fset.Position(n.Pos()).Line] {
				return true
			}
			switch fun := n.Fun.(type) {
			case *ast.Ident:
				add(fn.pkg.ImportPath + "." + fun.Name)
			case *ast.SelectorExpr:
				if x, ok := fun.X.(*ast.Ident); ok {
					if imp, ok := fn.file.Imports[x.Name]; ok {
						// Package-qualified function: core.PutFrameHeader
						// called from the hub sender loop.
						add(imp + "." + fun.Sel.Name)
						return true
					}
				}
				if base := e.typeOf(fun.X); base != nil && base.Path != "" {
					add(base.Path + "." + base.Name + "." + fun.Sel.Name)
				}
			}
		}
		return true
	}
	ast.Inspect(fn.fd.Body, walk)
	return out
}

// posInterval is a half-open source range.
type posInterval struct{ start, end token.Pos }

type coldSet []posInterval

func (c coldSet) covers(p token.Pos) bool {
	for _, iv := range c {
		if iv.start <= p && p < iv.end {
			return true
		}
	}
	return false
}

// coldIntervals finds the early-exit regions of a hot function body: the
// body of an if (or its else block) and the statements of a switch or
// select case whose list ends in return/break/panic. Everything inside
// is error handling or teardown — off the steady-state frame path — so
// both the analyzers and the closure ignore it. Loop bodies and the
// function body itself never count: they ARE the steady state, whatever
// their last statement is.
func coldIntervals(body *ast.BlockStmt) coldSet {
	var cold coldSet
	mark := func(list []ast.Stmt, end token.Pos) {
		if len(list) == 0 || !stmtsTerminate(list) {
			return
		}
		cold = append(cold, posInterval{start: list[0].Pos(), end: end})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			mark(n.Body.List, n.Body.End())
			if alt, ok := n.Else.(*ast.BlockStmt); ok {
				mark(alt.List, alt.End())
			}
		case *ast.CaseClause:
			mark(n.Body, n.End())
		case *ast.CommClause:
			mark(n.Body, n.End())
		}
		return true
	})
	return cold
}

// nolintLines returns the set of source lines covered by a nolint
// comment for any of the given analyzers — the same placement rules as
// finding suppression (trailing same-line or full line above), used
// where the closure needs line coverage before any finding exists.
func nolintLines(fset *token.FileSet, file *File, analyzers ...string) map[int]bool {
	lines := map[int]bool{}
	for _, cg := range file.AST.Comments {
		matched := false
		for _, c := range cg.List {
			for _, a := range analyzers {
				if nolintMatches(c.Text, a) {
					matched = true
				}
			}
		}
		if matched {
			end := fset.Position(cg.End()).Line
			lines[end] = true
			lines[end+1] = true
		}
	}
	return lines
}

// Hotpaths renders the annotated roots and their transitive callee
// closure, sorted by function key, each with its discovery chain — the
// `dmplint -hotpaths` dump.
func Hotpaths(idx *Index) string {
	h := idx.hot()
	var b strings.Builder
	b.WriteString("hotpath roots:\n")
	for _, r := range h.roots {
		b.WriteString("  " + trimModule(idx.Module, r) + "\n")
	}
	keys := make([]string, 0, len(h.hot))
	for k := range h.hot {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b.WriteString("transitive closure:\n")
	for _, k := range keys {
		fn := h.hot[k]
		b.WriteString("  " + trimModule(idx.Module, k))
		if fn.root {
			b.WriteString("  [root]")
		}
		if len(fn.via) > 0 {
			parts := make([]string, 0, len(fn.via))
			for _, v := range fn.via {
				parts = append(parts, trimModule(idx.Module, v))
			}
			b.WriteString("  via " + strings.Join(parts, " -> "))
		}
		b.WriteString("\n")
	}
	return b.String()
}
