// Buffer-ownership analysis: the `// bufown` annotation vocabulary and
// the borrow/escape analyzer that makes a zero-copy fan-out refactor
// safe to attempt.
//
// The hub's ring slots are reused every ring lap, so any []byte that
// aliases a slot payload is a loan with frame-scoped lifetime: the hub
// delivers pinned slot buffers without copying them, so a retained or
// mutated alias is a cross-lap data race. PR 7 built the enforcement
// floor for allocations (hotalloc/copycheck over the hotpath closure);
// bufown is the matching floor for aliasing and lifetime.
//
// Annotation grammar — doc-comment lines whose first word is "bufown":
//
//	// bufown borrowed [param...]   function params that alias a shared
//	                                frame payload; no names = every
//	                                []byte param
//	// bufown owned [param...]      params the callee may mutate/retain
//	                                (ownership transfers at the call)
//	// bufown sink <reason>         a sanctioned handoff point; borrowed
//	                                slices may be passed in freely
//
// Struct fields take the same markers in their doc or trailing comment:
//
//	payload []byte // bufown owned — slot buffer, reused every lap
//	view    []byte // bufown borrowed release-by drop
//
// An owned field holds bytes its struct may rewrite at any time, so
// reading it from outside the owning struct's methods yields a borrow.
// A borrowed field is a sanctioned retained alias and MUST name the
// method that drops it (`release-by <method>`, checked to exist);
// storing a borrow into any other field is an escape.
//
// Enforcement is an intraprocedural forward dataflow pass over every
// function in the hotpath closure plus every function carrying a bufown
// annotation. Borrowed params and non-owner reads of annotated fields
// seed a taint set; re-slicing (`b[4:]`, `b[:n]`) and assignment chains
// propagate it to a fixed point. On the tainted set the analyzer
// convicts:
//
//	mutation  index/IncDec assignment into the slice, append to it,
//	          copy into it, or passing it to a resolvable module
//	          function whose parameter is not marked borrowed or sink
//	escape    store into a struct field (unless the field is borrowed
//	          with a release-by pairing), a package-level var, a map, a
//	          channel send, or capture by a go/closure subtree
//
// Reading a borrow, copying OUT of it, returning it, and handing it to
// a sink — an annotated module sink, net.Conn.Write, or a net.Buffers
// batch — are all allowed. Unresolvable callees and types stay quiet,
// per the suite's "unknown: stay quiet" convention, and every check
// honors `// nolint:bufown reason`.
//
// `dmplint -bufgraph` dumps the borrow edges the pass derives (field →
// borrower, lender → borrowed param, function → sink) as Graphviz dot.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// bufFn is one declared function in the ownership table.
type bufFn struct {
	key  string
	pkg  *Package
	file *File
	fd   *ast.FuncDecl

	params    []string // declared param names, flattened, in order
	borrowed  map[string]bool
	owned     map[string]bool
	sink      bool
	annotated bool // any bufown doc line present
}

// bufField is one annotated struct field.
type bufField struct {
	key       string // pkg.Struct.Field
	pkgPath   string
	owner     string // struct type name
	name      string
	mode      string // "borrowed" or "owned"
	releaseBy string
}

// bufIndex is the lazily computed module-wide ownership table.
type bufIndex struct {
	fns    map[string]*bufFn    // every declared function, by summaryKey
	fields map[string]*bufField // annotated fields, by pkg.Struct.Field
	errs   map[string][]Finding // annotation-grammar findings, by pkg
}

// buf computes the ownership table once per Index.
func (idx *Index) buf() *bufIndex {
	idx.bufOnce.Do(func() {
		idx.bufIdx = buildBufIndex(idx)
	})
	return idx.bufIdx
}

// bufownLines extracts the token lists of `bufown ...` lines from a
// comment group: a line counts when its first word is exactly "bufown",
// so prose about ownership does not annotate.
func bufownLines(cg *ast.CommentGroup) [][]string {
	if cg == nil {
		return nil
	}
	var out [][]string
	for _, line := range strings.Split(cg.Text(), "\n") {
		fields := strings.Fields(line)
		if len(fields) >= 2 && fields[0] == "bufown" {
			out = append(out, fields[1:])
		}
	}
	return out
}

// bufToken strips the punctuation that prose-style annotations attach
// ("release-by drop." or "frame,").
func bufToken(s string) string {
	return strings.Trim(s, "—-.,:;()")
}

func buildBufIndex(idx *Index) *bufIndex {
	bi := &bufIndex{
		fns:    map[string]*bufFn{},
		fields: map[string]*bufField{},
		errs:   map[string][]Finding{},
	}
	errf := func(pkg *Package, file *File, pos token.Pos, format string, args ...any) {
		bi.errs[pkg.ImportPath] = append(bi.errs[pkg.ImportPath],
			finding(file, pos, "bufown", format, args...))
	}

	for _, pkg := range idx.pkgs {
		for _, file := range pkg.Files {
			if file.Test {
				continue
			}
			for _, decl := range file.AST.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					key := summaryKey(pkg, d)
					if key == "" || bi.fns[key] != nil {
						continue
					}
					fn := &bufFn{key: key, pkg: pkg, file: file, fd: d,
						borrowed: map[string]bool{}, owned: map[string]bool{}}
					byteParams := map[string]bool{}
					if d.Type.Params != nil {
						for _, f := range d.Type.Params.List {
							t := resolveType(file, pkg.ImportPath, f.Type)
							isBytes := t != nil && t.Slice && t.Elem != nil && t.Elem.Name == "byte"
							for _, name := range f.Names {
								fn.params = append(fn.params, name.Name)
								if isBytes {
									byteParams[name.Name] = true
								}
							}
						}
					}
					declared := map[string]bool{}
					for _, p := range fn.params {
						declared[p] = true
					}
					for _, toks := range bufownLines(d.Doc) {
						fn.annotated = true
						mode := toks[0]
						switch mode {
						case "sink":
							fn.sink = true
						case "borrowed", "owned":
							set := fn.borrowed
							if mode == "owned" {
								set = fn.owned
							}
							named := false
							for _, tok := range toks[1:] {
								name := bufToken(tok)
								if name == "" {
									continue
								}
								if !declared[name] {
									// Past the param list the line is prose
									// ("bufown borrowed frame — aliases a
									// ring slot"); only the leading tokens
									// must name params.
									break
								}
								set[name] = true
								named = true
							}
							if !named {
								// No names: every []byte param.
								for p := range byteParams {
									set[p] = true
								}
								if len(byteParams) == 0 {
									errf(pkg, file, d.Pos(),
										"bufown %s on %s names no parameter and the function has no []byte parameter",
										mode, d.Name.Name)
								}
							}
						default:
							errf(pkg, file, d.Pos(),
								"unknown bufown mode %q on %s (want borrowed, owned, or sink)",
								mode, d.Name.Name)
						}
					}
					bi.fns[key] = fn
				case *ast.GenDecl:
					if d.Tok != token.TYPE {
						continue
					}
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						st, ok := ts.Type.(*ast.StructType)
						if !ok {
							continue
						}
						for _, f := range st.Fields.List {
							lines := append(bufownLines(f.Doc), bufownLines(f.Comment)...)
							if len(lines) == 0 {
								continue
							}
							for _, name := range f.Names {
								fld := &bufField{
									pkgPath: pkg.ImportPath, owner: ts.Name.Name, name: name.Name,
									key: pkg.ImportPath + "." + ts.Name.Name + "." + name.Name,
								}
								for _, toks := range lines {
									switch toks[0] {
									case "borrowed", "owned":
										fld.mode = toks[0]
									default:
										errf(pkg, file, f.Pos(),
											"unknown bufown mode %q on field %s.%s (want borrowed or owned)",
											toks[0], ts.Name.Name, name.Name)
									}
									for i, tok := range toks {
										if bufToken(tok) == "release-by" && i+1 < len(toks) {
											fld.releaseBy = bufToken(toks[i+1])
										}
									}
								}
								if fld.mode == "" {
									continue
								}
								switch {
								case fld.mode == "borrowed" && fld.releaseBy == "":
									errf(pkg, file, f.Pos(),
										"field %s.%s is bufown borrowed but names no release-by method; a retained borrow must declare how the alias is dropped",
										ts.Name.Name, name.Name)
								case fld.releaseBy != "":
									if _, ok := idx.methodResults[pkg.ImportPath][ts.Name.Name][fld.releaseBy]; !ok {
										errf(pkg, file, f.Pos(),
											"field %s.%s names release-by method %q which %s does not declare",
											ts.Name.Name, name.Name, fld.releaseBy, ts.Name.Name)
									}
								}
								bi.fields[fld.key] = fld
							}
						}
					}
				}
			}
		}
	}
	return bi
}

// paramAt maps an argument index to the callee's parameter name,
// clamping trailing arguments onto a variadic final parameter.
func (fn *bufFn) paramAt(i int) string {
	if len(fn.params) == 0 {
		return ""
	}
	if i >= len(fn.params) {
		i = len(fn.params) - 1
	}
	return fn.params[i]
}

// BufEdge is one edge of the borrow graph: who holds an alias of whose
// bytes, and through which sanctioned channel it leaves.
type BufEdge struct {
	From string // field key (borrow) or function key (lend/store/sink)
	To   string // borrowing function, borrowed-param callee, field, or sink
	Kind string // "borrow", "lend", "store", or "sink"
}

func (e BufEdge) key() string { return e.Kind + "\x00" + e.From + "\x00" + e.To }

// bufownFunc runs the dataflow pass over one function, returning its
// convictions and the borrow edges it contributes to the graph.
func bufownFunc(idx *Index, bi *bufIndex, fn *bufFn) ([]Finding, []BufEdge) {
	e := funcEnv(idx, fn.pkg, fn.file, fn.fd)
	var out []Finding
	var edges []BufEdge
	edgeSeen := map[string]bool{}
	addEdge := func(from, to, kind string) {
		ed := BufEdge{From: from, To: to, Kind: kind}
		if !edgeSeen[ed.key()] {
			edgeSeen[ed.key()] = true
			edges = append(edges, ed)
		}
	}
	report := func(pos token.Pos, format string, args ...any) {
		out = append(out, finding(fn.file, pos, "bufown", format, args...))
	}

	recvName := ""
	if fn.fd.Recv != nil && len(fn.fd.Recv.List) > 0 {
		if t := resolveType(fn.file, fn.pkg.ImportPath, fn.fd.Recv.List[0].Type); t != nil {
			recvName = t.Name
		}
	}

	// locals is every name the function genuinely declares (receiver,
	// params, :=, var, range). The env's vars map also absorbs plain `=`
	// assignments, so it cannot distinguish a local from a package-level
	// var being overwritten — this set can.
	locals := map[string]bool{}
	addNames := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				locals[name.Name] = true
			}
		}
	}
	addNames(fn.fd.Recv)
	addNames(fn.fd.Type.Params)
	addNames(fn.fd.Type.Results)
	ast.Inspect(fn.fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				for _, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						locals[id.Name] = true
					}
				}
			}
		case *ast.DeclStmt:
			if gd, ok := n.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, name := range vs.Names {
							locals[name.Name] = true
						}
					}
				}
			}
		case *ast.RangeStmt:
			if n.Tok == token.DEFINE {
				for _, x := range []ast.Expr{n.Key, n.Value} {
					if id, ok := x.(*ast.Ident); ok {
						locals[id.Name] = true
					}
				}
			}
		case *ast.FuncLit:
			addNames(n.Type.Params)
			addNames(n.Type.Results)
		}
		return true
	})

	// typeOfExt falls back to package-level var types, which the
	// per-function env does not track.
	typeOfExt := func(x ast.Expr) *TypeRef {
		if t := e.typeOf(x); t != nil {
			return t
		}
		if id, ok := x.(*ast.Ident); ok && !locals[id.Name] {
			return idx.pkgVars[fn.pkg.ImportPath][id.Name]
		}
		return nil
	}

	// fieldOf resolves a selector to its bufown field annotation.
	fieldOf := func(sel *ast.SelectorExpr) *bufField {
		base := e.typeOf(sel.X)
		if base == nil || base.Name == "" {
			return nil
		}
		return bi.fields[base.Path+"."+base.Name+"."+sel.Sel.Name]
	}

	taint := map[string]bool{}
	for p := range fn.borrowed {
		taint[p] = true
	}

	// tainted reports whether x evaluates to a borrowed slice: a tainted
	// local, a re-slice or paren of one, or a read of an annotated field
	// (owned fields only borrow outside the owning struct's methods —
	// the owner manages its own buffer).
	var tainted func(x ast.Expr) bool
	tainted = func(x ast.Expr) bool {
		switch x := x.(type) {
		case *ast.Ident:
			return taint[x.Name]
		case *ast.ParenExpr:
			return tainted(x.X)
		case *ast.SliceExpr:
			return tainted(x.X)
		case *ast.SelectorExpr:
			fld := fieldOf(x)
			if fld == nil {
				return false
			}
			if fld.mode == "owned" && fld.pkgPath == fn.pkg.ImportPath && fld.owner == recvName {
				return false
			}
			return true
		}
		return false
	}

	// Propagate taint through assignment chains to a fixed point. Only
	// slice-valued expressions carry it: b[i] is a byte, not an alias.
	for changed := true; changed; {
		changed = false
		ast.Inspect(fn.fd.Body, func(n ast.Node) bool {
			a, ok := n.(*ast.AssignStmt)
			if !ok || len(a.Lhs) != len(a.Rhs) {
				return true
			}
			for i, lhs := range a.Lhs {
				id, ok := lhs.(*ast.Ident)
				if ok && id.Name != "_" && !taint[id.Name] && tainted(a.Rhs[i]) {
					taint[id.Name] = true
					changed = true
				}
			}
			return true
		})
	}

	describe := func(x ast.Expr) string {
		if s := selectorPath(x); s != "" {
			return s
		}
		return "borrowed slice"
	}

	// reportCaptures convicts tainted free identifiers inside a function
	// literal: the closure may outlive the frame, so the borrow escapes.
	reportCaptures := func(fl *ast.FuncLit, how string) {
		shadow := map[string]bool{}
		if fl.Type.Params != nil {
			for _, f := range fl.Type.Params.List {
				for _, name := range f.Names {
					shadow[name.Name] = true
				}
			}
		}
		selNames := map[*ast.Ident]bool{}
		ast.Inspect(fl, func(n ast.Node) bool {
			if s, ok := n.(*ast.SelectorExpr); ok {
				selNames[s.Sel] = true
			}
			return true
		})
		seen := map[string]bool{}
		ast.Inspect(fl.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if ok && taint[id.Name] && !shadow[id.Name] && !selNames[id] && !seen[id.Name] {
				seen[id.Name] = true
				report(id.Pos(), "borrowed slice %q captured by %s; the borrow must not outlive the frame — copy it first", id.Name, how)
			}
			return true
		})
	}

	// checkCall enforces handoff rules at a call site: builtins append
	// and copy must not write into a borrow, sanctioned sinks accept it,
	// and a resolvable module callee must mark the receiving parameter
	// borrowed (anything else claims ownership the caller cannot grant).
	checkCall := func(call *ast.CallExpr) {
		calleeKey := ""
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			switch fun.Name {
			case "append":
				if len(call.Args) > 0 && tainted(call.Args[0]) {
					report(call.Pos(), "append to borrowed slice %s may grow past the shared backing array or move it; copy first", describe(call.Args[0]))
				}
				return
			case "copy":
				if len(call.Args) == 2 && tainted(call.Args[0]) {
					report(call.Pos(), "copy into borrowed slice %s overwrites shared payload bytes", describe(call.Args[0]))
				}
				return
			case "len", "cap", "string", "make", "new", "delete", "panic",
				"print", "println", "min", "max", "clear":
				return
			}
			calleeKey = fn.pkg.ImportPath + "." + fun.Name
		case *ast.SelectorExpr:
			if x, ok := fun.X.(*ast.Ident); ok {
				if imp, ok := fn.file.Imports[x.Name]; ok {
					if imp == "net" && fun.Sel.Name == "Buffers" {
						// net.Buffers(bufs) — the writev batch is a
						// sanctioned handoff to the kernel.
						for _, arg := range call.Args {
							if tainted(arg) {
								addEdge(fn.key, "net.Buffers", "sink")
							}
						}
						return
					}
					calleeKey = imp + "." + fun.Sel.Name
					break
				}
			}
			base := e.typeOf(fun.X)
			if base == nil || base.Path == "" {
				return // unresolved receiver: stay quiet
			}
			if base.Path == "net" && fun.Sel.Name == "Write" {
				switch base.Name {
				case "Conn", "TCPConn", "UDPConn", "UnixConn", "Buffers":
					for _, arg := range call.Args {
						if tainted(arg) {
							addEdge(fn.key, "net."+base.Name+".Write", "sink")
						}
					}
					return
				}
			}
			calleeKey = base.Path + "." + base.Name + "." + fun.Sel.Name
		default:
			return
		}
		callee := bi.fns[calleeKey]
		if callee == nil {
			return // external or unresolvable: stay quiet
		}
		if callee.sink {
			for _, arg := range call.Args {
				if tainted(arg) {
					addEdge(fn.key, calleeKey, "sink")
				}
			}
			return
		}
		for i, arg := range call.Args {
			if !tainted(arg) {
				continue
			}
			pname := callee.paramAt(i)
			if pname == "" {
				continue
			}
			if callee.borrowed[pname] {
				addEdge(fn.key, calleeKey, "lend")
				continue
			}
			report(arg.Pos(), "passes borrowed slice %s to %s: parameter %q is not marked borrowed or sink — the callee may retain or mutate it",
				describe(arg), trimModule(idx.Module, calleeKey), pname)
		}
	}

	// checkAssign enforces the mutation and escape rules at stores.
	checkAssign := func(a *ast.AssignStmt) {
		for i, lhs := range a.Lhs {
			var rhs ast.Expr
			if len(a.Rhs) == len(a.Lhs) {
				rhs = a.Rhs[i]
			}
			switch l := lhs.(type) {
			case *ast.IndexExpr:
				if tainted(l.X) {
					report(l.Pos(), "writes into borrowed slice %s; the bytes are shared frame payload", describe(l.X))
					continue
				}
				if rhs == nil || !tainted(rhs) {
					continue
				}
				if t := typeOfExt(l.X); t != nil && t.Map {
					report(rhs.Pos(), "borrowed slice %s stored in map %s escapes frame scope", describe(rhs), describe(l.X))
				}
			case *ast.Ident:
				if rhs == nil || !tainted(rhs) || locals[l.Name] {
					continue
				}
				if _, ok := idx.pkgVars[fn.pkg.ImportPath][l.Name]; ok {
					report(rhs.Pos(), "borrowed slice %s stored in package-level var %s escapes frame scope", describe(rhs), l.Name)
				}
			case *ast.SelectorExpr:
				if rhs == nil || !tainted(rhs) {
					continue
				}
				fld := fieldOf(l)
				if fld != nil && fld.mode == "borrowed" && fld.releaseBy != "" {
					// Sanctioned retained alias: the field declares the
					// release method that drops it.
					addEdge(fn.key, fld.key, "store")
					continue
				}
				report(rhs.Pos(), "borrowed slice %s escapes into field %s; annotate the field `bufown borrowed release-by <method>` or copy first",
					describe(rhs), describe(l))
			}
		}
	}

	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			reportCaptures(n, "closure")
			return false
		case *ast.GoStmt:
			for _, arg := range n.Call.Args {
				if tainted(arg) {
					report(arg.Pos(), "borrowed slice %s handed to goroutine escapes frame scope", describe(arg))
				}
			}
			if fl, ok := n.Call.Fun.(*ast.FuncLit); ok {
				reportCaptures(fl, "goroutine")
			}
			return false
		case *ast.DeferStmt:
			return false
		case *ast.SendStmt:
			if tainted(n.Value) {
				report(n.Value.Pos(), "borrowed slice %s sent on channel escapes frame scope", describe(n.Value))
			}
		case *ast.AssignStmt:
			checkAssign(n)
		case *ast.IncDecStmt:
			if ix, ok := n.X.(*ast.IndexExpr); ok && tainted(ix.X) {
				report(n.Pos(), "writes into borrowed slice %s; the bytes are shared frame payload", describe(ix.X))
			}
		case *ast.CallExpr:
			checkCall(n)
		case *ast.SelectorExpr:
			if fld := fieldOf(n); fld != nil && tainted(n) {
				addEdge(fld.key, fn.key, "borrow")
			}
		}
		return true
	}
	ast.Inspect(fn.fd.Body, walk)
	return out, edges
}

// bufScope reports whether fn is analyzed: in the hotpath closure, or
// carrying any bufown annotation.
func bufScope(h *hotIndex, fn *bufFn) bool {
	return fn.annotated || h.hot[fn.key] != nil
}

// Bufown returns the buffer-ownership analyzer.
func Bufown() *Analyzer {
	return &Analyzer{
		Name: "bufown",
		Doc:  "borrowed frame-payload slices are never mutated, retained, or leaked past frame scope",
		Run: func(pkg *Package, idx *Index) []Finding {
			bi := idx.buf()
			h := idx.hot()
			var out []Finding
			out = append(out, bi.errs[pkg.ImportPath]...)
			eachFunc(pkg, func(file *File, fd *ast.FuncDecl) {
				key := summaryKey(pkg, fd)
				fn := bi.fns[key]
				if fn == nil || fn.fd != fd || !bufScope(h, fn) {
					return
				}
				fs, _ := bufownFunc(idx, bi, fn)
				out = append(out, fs...)
			})
			return out
		},
	}
}

// BufGraph collects the borrow edges of every in-scope function in the
// module, deduplicated and sorted.
func BufGraph(idx *Index) []BufEdge {
	bi := idx.buf()
	h := idx.hot()
	seen := map[string]bool{}
	var edges []BufEdge
	for _, pkg := range idx.pkgs {
		eachFunc(pkg, func(file *File, fd *ast.FuncDecl) {
			fn := bi.fns[summaryKey(pkg, fd)]
			if fn == nil || fn.fd != fd || !bufScope(h, fn) {
				return
			}
			_, es := bufownFunc(idx, bi, fn)
			for _, e := range es {
				if !seen[e.key()] {
					seen[e.key()] = true
					edges = append(edges, e)
				}
			}
		})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].key() < edges[j].key() })
	return edges
}

// BufGraphDot renders the borrow graph as Graphviz dot: field → reader
// borrow edges, caller → callee lends, sanctioned stores, and handoffs
// into sinks. Deterministic (sorted nodes and edges) so it can be
// diffed across commits.
func BufGraphDot(idx *Index) string {
	edges := BufGraph(idx)
	nodeSet := map[string]bool{}
	for _, e := range edges {
		nodeSet[e.From] = true
		nodeSet[e.To] = true
	}
	var nodes []string
	for n := range nodeSet {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)

	var b strings.Builder
	b.WriteString("digraph bufown {\n")
	b.WriteString("  rankdir=LR;\n")
	b.WriteString("  node [shape=box, fontname=\"monospace\"];\n")
	for _, n := range nodes {
		fmt.Fprintf(&b, "  %q;\n", trimModule(idx.Module, n))
	}
	for _, e := range edges {
		attrs := fmt.Sprintf("label=%q", e.Kind)
		if e.Kind == "sink" {
			attrs += ", color=blue"
		}
		fmt.Fprintf(&b, "  %q -> %q [%s];\n",
			trimModule(idx.Module, e.From), trimModule(idx.Module, e.To), attrs)
	}
	b.WriteString("}\n")
	return b.String()
}
