// Best-effort syntactic type inference shared by the analyzers.
//
// dmplint deliberately avoids go/types' full loader (it would need an
// importer and build-system integration); instead an Index over every
// parsed package records struct field types and function/method result
// types, and a per-function env resolves identifiers from
// receivers, parameters, var declarations, assignments from known
// constructors, type assertions and range statements. Unresolvable
// expressions yield nil, and analyzers treat nil as "unknown: stay quiet",
// so the imprecision only ever costs false negatives, not noise.
package lint

import (
	"go/ast"
	"go/token"
	"sync"
)

// TypeRef is a shallow description of a Go type.
type TypeRef struct {
	Path string // import path; "" for builtins and unresolved
	Name string // type name ("Conn", "File", "byte", …)
	Ptr  bool

	Slice bool // []Elem
	Array bool // [N]Elem — constant-size, indexing is compile-time checked
	Map   bool // map[...]Elem
	Elem  *TypeRef
}

// resolveType derives a TypeRef from a type expression appearing in file
// (whose import table gives package names meaning). pkgPath qualifies
// bare identifiers that name package-local types.
func resolveType(file *File, pkgPath string, e ast.Expr) *TypeRef {
	switch e := e.(type) {
	case *ast.Ident:
		switch e.Name {
		case "byte", "uint8", "int", "int8", "int16", "int32", "int64",
			"uint", "uint16", "uint32", "uint64", "uintptr", "float32",
			"float64", "bool", "string", "rune", "error", "any":
			return &TypeRef{Name: e.Name}
		}
		return &TypeRef{Path: pkgPath, Name: e.Name}
	case *ast.SelectorExpr:
		if x, ok := e.X.(*ast.Ident); ok {
			if imp, ok := file.Imports[x.Name]; ok {
				return &TypeRef{Path: imp, Name: e.Sel.Name}
			}
		}
	case *ast.StarExpr:
		if inner := resolveType(file, pkgPath, e.X); inner != nil {
			cp := *inner
			cp.Ptr = true
			return &cp
		}
	case *ast.ArrayType:
		elem := resolveType(file, pkgPath, e.Elt)
		if e.Len == nil {
			return &TypeRef{Slice: true, Elem: elem}
		}
		return &TypeRef{Array: true, Elem: elem}
	case *ast.MapType:
		return &TypeRef{Map: true, Elem: resolveType(file, pkgPath, e.Value)}
	case *ast.IndexExpr: // generic instantiation T[X]
		return resolveType(file, pkgPath, e.X)
	case *ast.IndexListExpr:
		return resolveType(file, pkgPath, e.X)
	case *ast.ParenExpr:
		return resolveType(file, pkgPath, e.X)
	}
	return nil
}

// Index holds module-wide syntactic facts.
type Index struct {
	Module string

	structs       map[string]map[string]map[string]*TypeRef // pkg → struct → field → type
	funcResults   map[string]map[string][]*TypeRef          // pkg → func → results
	methodResults map[string]map[string]map[string][]*TypeRef

	// pkgs is every loaded package; the enum table below is built over
	// all of them regardless of which packages an analyzer is invoked on.
	pkgs []*Package

	// Enum member table (exhaustenum.go): module named integer types with
	// two or more typed constants.
	enumOnce sync.Once
	enumIdx  map[string]*enumInfo
}

// BuildIndex scans every package once.
func BuildIndex(module string, pkgs []*Package) *Index {
	idx := &Index{
		Module:        module,
		structs:       map[string]map[string]map[string]*TypeRef{},
		funcResults:   map[string]map[string][]*TypeRef{},
		methodResults: map[string]map[string]map[string][]*TypeRef{},
		pkgs:          pkgs,
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.AST.Decls {
				switch d := decl.(type) {
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
						fields := map[string]*TypeRef{}
						for _, f := range st.Fields.List {
							t := resolveType(file, pkg.ImportPath, f.Type)
							for _, name := range f.Names {
								fields[name.Name] = t
							}
						}
						if idx.structs[pkg.ImportPath] == nil {
							idx.structs[pkg.ImportPath] = map[string]map[string]*TypeRef{}
						}
						idx.structs[pkg.ImportPath][ts.Name.Name] = fields
					}
				case *ast.FuncDecl:
					var results []*TypeRef
					if d.Type.Results != nil {
						for _, r := range d.Type.Results.List {
							t := resolveType(file, pkg.ImportPath, r.Type)
							n := len(r.Names)
							if n == 0 {
								n = 1
							}
							for i := 0; i < n; i++ {
								results = append(results, t)
							}
						}
					}
					if d.Recv == nil {
						if idx.funcResults[pkg.ImportPath] == nil {
							idx.funcResults[pkg.ImportPath] = map[string][]*TypeRef{}
						}
						idx.funcResults[pkg.ImportPath][d.Name.Name] = results
						continue
					}
					recv := resolveType(file, pkg.ImportPath, d.Recv.List[0].Type)
					if recv == nil {
						continue
					}
					if idx.methodResults[pkg.ImportPath] == nil {
						idx.methodResults[pkg.ImportPath] = map[string]map[string][]*TypeRef{}
					}
					if idx.methodResults[pkg.ImportPath][recv.Name] == nil {
						idx.methodResults[pkg.ImportPath][recv.Name] = map[string][]*TypeRef{}
					}
					idx.methodResults[pkg.ImportPath][recv.Name][d.Name.Name] = results
				}
			}
		}
	}
	return idx
}

// env resolves identifiers within one function declaration.
type env struct {
	idx  *Index
	pkg  *Package
	file *File
	vars map[string]*TypeRef
}

// funcEnv collects identifier types from fn's receiver, parameters,
// nested function-literal parameters, declarations, assignments from
// known constructors, type assertions and range statements.
func funcEnv(idx *Index, pkg *Package, file *File, fn *ast.FuncDecl) *env {
	e := &env{idx: idx, pkg: pkg, file: file, vars: map[string]*TypeRef{}}
	bindFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			t := resolveType(file, pkg.ImportPath, f.Type)
			for _, name := range f.Names {
				e.vars[name.Name] = t
			}
		}
	}
	bindFields(fn.Recv)
	bindFields(fn.Type.Params)
	if fn.Body == nil {
		return e
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			bindFields(n.Type.Params)
		case *ast.DeclStmt:
			gd, ok := n.Decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || vs.Type == nil {
					continue
				}
				t := resolveType(file, pkg.ImportPath, vs.Type)
				for _, name := range vs.Names {
					e.vars[name.Name] = t
				}
			}
		case *ast.AssignStmt:
			e.bindAssign(n)
		case *ast.RangeStmt:
			t := e.typeOf(n.X)
			if t != nil && (t.Slice || t.Array || t.Map) && n.Value != nil {
				if id, ok := n.Value.(*ast.Ident); ok {
					e.vars[id.Name] = t.Elem
				}
			}
		}
		return true
	})
	return e
}

func (e *env) bindAssign(a *ast.AssignStmt) {
	// x, err := f(...)  /  tc, ok := conn.(*T)
	if len(a.Rhs) == 1 && len(a.Lhs) > 1 {
		var results []*TypeRef
		switch rhs := a.Rhs[0].(type) {
		case *ast.CallExpr:
			results = e.callResults(rhs)
		case *ast.TypeAssertExpr:
			if rhs.Type != nil {
				results = []*TypeRef{resolveType(e.file, e.pkg.ImportPath, rhs.Type)}
			}
		case *ast.IndexExpr:
			// v, ok := m[k] — the first value carries the element type.
			results = []*TypeRef{e.typeOf(rhs)}
		}
		for i, lhs := range a.Lhs {
			if i >= len(results) {
				break
			}
			if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
				e.vars[id.Name] = results[i]
			}
		}
		return
	}
	if len(a.Rhs) != len(a.Lhs) {
		return
	}
	for i, lhs := range a.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		if t := e.typeOf(a.Rhs[i]); t != nil {
			e.vars[id.Name] = t
		}
	}
}

// callResults resolves a call's result types from the make builtin or
// the module-wide index.
func (e *env) callResults(call *ast.CallExpr) []*TypeRef {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fun.Name == "make" && len(call.Args) >= 1 {
			return []*TypeRef{resolveType(e.file, e.pkg.ImportPath, call.Args[0])}
		}
		return e.idx.funcResults[e.pkg.ImportPath][fun.Name]
	case *ast.SelectorExpr:
		if x, ok := fun.X.(*ast.Ident); ok {
			if imp, ok := e.file.Imports[x.Name]; ok {
				return e.idx.funcResults[imp][fun.Sel.Name]
			}
		}
		recv := e.typeOf(fun.X)
		if recv == nil {
			return nil
		}
		return e.idx.methodResults[recv.Path][recv.Name][fun.Sel.Name]
	}
	return nil
}

// typeOf resolves an expression to a TypeRef, or nil if unknown.
func (e *env) typeOf(expr ast.Expr) *TypeRef {
	switch expr := expr.(type) {
	case *ast.Ident:
		return e.vars[expr.Name]
	case *ast.SelectorExpr:
		base := e.typeOf(expr.X)
		if base == nil {
			return nil
		}
		return e.idx.structs[base.Path][base.Name][expr.Sel.Name]
	case *ast.IndexExpr:
		t := e.typeOf(expr.X)
		if t != nil && (t.Slice || t.Array || t.Map) {
			return t.Elem
		}
	case *ast.CallExpr:
		if r := e.callResults(expr); len(r) > 0 {
			return r[0]
		}
	case *ast.ParenExpr:
		return e.typeOf(expr.X)
	case *ast.StarExpr:
		if t := e.typeOf(expr.X); t != nil {
			cp := *t
			cp.Ptr = false
			return &cp
		}
	case *ast.UnaryExpr:
		if expr.Op == token.AND {
			if t := e.typeOf(expr.X); t != nil {
				cp := *t
				cp.Ptr = true
				return &cp
			}
		}
	case *ast.CompositeLit:
		if expr.Type != nil {
			return resolveType(e.file, e.pkg.ImportPath, expr.Type)
		}
	}
	return nil
}

// eachFunc invokes fn for every function declaration in every non-test
// file of pkg. Analyzers target production code; tests are exempt.
func eachFunc(pkg *Package, fn func(file *File, decl *ast.FuncDecl)) {
	for _, file := range pkg.Files {
		if file.Test {
			continue
		}
		for _, decl := range file.AST.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(file, fd)
			}
		}
	}
}

// selectorPath renders a selector chain ("h.subs") for messages; best
// effort, falls back to the final element.
func selectorPath(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if base := selectorPath(e.X); base != "" {
			return base + "." + e.Sel.Name
		}
		return e.Sel.Name
	}
	return ""
}
