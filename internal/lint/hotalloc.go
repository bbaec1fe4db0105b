package lint

import (
	"go/ast"
	"go/token"
)

// Hotalloc flags heap-allocating constructs inside `// hotpath`
// functions and their transitive callees (see hotpath.go for the
// closure and the cold-region/nolint escapes):
//
//   - make and new — including map and channel allocation
//   - composite literals that escape: &T{…}, slice and map literals
//     (a plain value literal T{…} stays on the stack and is quiet)
//   - append to a slice that was not preallocated with a 3-arg make in
//     the same function — growth reallocates mid-frame
//   - string↔[]byte conversions, which copy and allocate
//   - function literals — a closure allocates at each evaluation
//   - go statements — spawning per frame allocates a stack
//   - fmt/log/errors call sites, which box arguments into interfaces
//     (the classic per-frame logging regression)
//
// Per-path setup that legitimately allocates once before the per-frame
// loop carries `// nolint:hotalloc reason`, which suppresses the finding
// AND cuts the closure edge on that line.
func Hotalloc() *Analyzer {
	return &Analyzer{
		Name: "hotalloc",
		Run:  runHotalloc,
	}
}

// boxingPkgs are stdlib packages whose call sites take ...any (or build
// errors): every call boxes its arguments.
var boxingPkgs = map[string]bool{"fmt": true, "log": true, "errors": true}

func runHotalloc(pkg *Package, idx *Index) []Finding {
	h := idx.hot()
	var out []Finding
	eachFunc(pkg, func(file *File, fd *ast.FuncDecl) {
		key := summaryKey(pkg, fd)
		fn, ok := h.hot[key]
		if !ok || fn.fd != fd {
			return
		}
		out = append(out, hotallocFunc(idx, pkg, file, fd)...)
	})
	return out
}

func hotallocFunc(idx *Index, pkg *Package, file *File, fd *ast.FuncDecl) []Finding {
	e := funcEnv(idx, pkg, file, fd)
	cold := coldIntervals(fd.Body)
	prealloc := preallocated(fd.Body)
	var out []Finding
	report := func(pos token.Pos, format string, args ...any) {
		out = append(out, finding(file, pos, "hotalloc", "hot path: "+format, args...))
	}
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if n == nil {
			return true
		}
		if cold.covers(n.Pos()) {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			report(n.Pos(), "function literal allocates a closure per evaluation; hoist it out of the frame loop")
			return false
		case *ast.GoStmt:
			report(n.Pos(), "go statement spawns a goroutine per call; move the spawn off the per-frame path")
			return false
		case *ast.DeferStmt:
			// Teardown: runs once at function exit, not per frame.
			return false
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					report(n.Pos(), "&composite literal escapes to the heap; reuse a preallocated value")
				}
			}
		case *ast.CompositeLit:
			switch n.Type.(type) {
			case *ast.ArrayType:
				if at := n.Type.(*ast.ArrayType); at.Len == nil {
					report(n.Pos(), "slice literal allocates a backing array; preallocate and reuse")
				}
			case *ast.MapType:
				report(n.Pos(), "map literal allocates; hoist the map out of the frame loop")
			}
		case *ast.CallExpr:
			switch fun := n.Fun.(type) {
			case *ast.Ident:
				switch fun.Name {
				case "make":
					if len(n.Args) >= 1 {
						if _, isMap := n.Args[0].(*ast.MapType); isMap {
							report(n.Pos(), "make allocates a map; hoist it out of the frame loop")
							return true
						}
					}
					report(n.Pos(), "make allocates; hoist the buffer out of the frame loop and reuse it")
				case "new":
					report(n.Pos(), "new allocates; reuse a preallocated value")
				case "append":
					if len(n.Args) >= 1 {
						if id, ok := n.Args[0].(*ast.Ident); ok && prealloc[id.Name] {
							return true // grows into capacity reserved up front
						}
					}
					report(n.Pos(), "append without preallocated capacity grows the backing array mid-frame; make(..., 0, cap) it first")
				case "string":
					if len(n.Args) == 1 {
						if t := e.typeOf(n.Args[0]); t != nil && t.Slice {
							report(n.Pos(), "string conversion copies and allocates; keep the bytes")
						}
					}
				}
			case *ast.ArrayType:
				// Conversion spelled as a call: []byte(s).
				if fun.Len == nil {
					if id, ok := fun.Elt.(*ast.Ident); ok && id.Name == "byte" {
						report(n.Pos(), "[]byte conversion copies and allocates; keep the bytes")
					}
				}
			case *ast.SelectorExpr:
				if x, ok := fun.X.(*ast.Ident); ok {
					if imp, ok := file.Imports[x.Name]; ok && boxingPkgs[imp] {
						report(n.Pos(), "%s.%s boxes its arguments into interfaces (allocates); move it off the per-frame path", x.Name, fun.Sel.Name)
					}
				}
			}
		}
		return true
	}
	ast.Inspect(fd.Body, walk)
	return out
}

// preallocated collects the names bound by a 3-arg make (explicit
// capacity) anywhere in the function — appends into those slices grow
// into reserved capacity, which is the sanctioned pre-size idiom.
func preallocated(body *ast.BlockStmt) map[string]bool {
	names := map[string]bool{}
	threeArgMake := func(e ast.Expr) bool {
		call, ok := e.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		return ok && id.Name == "make" && len(call.Args) == 3
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				if id, ok := lhs.(*ast.Ident); ok && threeArgMake(n.Rhs[i]) {
					names[id.Name] = true
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if i >= len(n.Values) {
					break
				}
				if threeArgMake(n.Values[i]) {
					names[name.Name] = true
				}
			}
		}
		return true
	})
	return names
}
