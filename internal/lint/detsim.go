package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// Detsim forbids nondeterminism in the model/simulator packages: wall
// clock reads (time.Now, time.Since), global or unseeded math/rand use,
// and map iteration whose body accumulates an order-dependent result
// (append, compound assignment, printing). The paper-validation numbers
// (Tables 2-3, Figs 4-5) must be bit-reproducible run to run.
func Detsim() *Analyzer {
	return &Analyzer{
		Name: "detsim",
		Run:  runDetsim,
	}
}

// Global math/rand functions that draw from the process-wide source.
var globalRandFns = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true,
	// math/rand/v2 spellings
	"IntN": true, "Int32": true, "Int32N": true, "Int64": true, "Int64N": true,
	"UintN": true, "Uint32N": true, "Uint64N": true, "N": true,
}

func runDetsim(pkg *Package, idx *Index) []Finding {
	var out []Finding
	for _, file := range pkg.Files {
		if file.Test {
			continue
		}
		var timeName, randName string
		for local, path := range file.Imports {
			switch path {
			case "time":
				timeName = local
			case "math/rand", "math/rand/v2":
				randName = local
			}
		}
		for _, decl := range file.AST.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			e := funcEnv(idx, pkg, file, fd)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					x, ok := sel.X.(*ast.Ident)
					if !ok {
						return true
					}
					switch {
					case timeName != "" && x.Name == timeName && (sel.Sel.Name == "Now" || sel.Sel.Name == "Since"):
						out = append(out, finding(file, n.Pos(), "detsim",
							"time.%s in deterministic package %s; thread simulated time instead",
							sel.Sel.Name, pkg.ImportPath))
					case randName != "" && x.Name == randName && globalRandFns[sel.Sel.Name]:
						out = append(out, finding(file, n.Pos(), "detsim",
							"global math/rand.%s draws from the shared unseeded source; use rand.New(rand.NewSource(seed))",
							sel.Sel.Name))
					case randName != "" && x.Name == randName && sel.Sel.Name == "New":
						if !isSeededSource(randName, n) {
							out = append(out, finding(file, n.Pos(), "detsim",
								"rand.New without an explicit rand.NewSource(seed) argument"))
						}
					}
				case *ast.RangeStmt:
					t := e.typeOf(n.X)
					if t == nil || !t.Map {
						return true
					}
					if feed, what := ordersResult(n.Body); feed {
						out = append(out, finding(file, n.Pos(), "detsim",
							"iteration over map %s feeds an order-dependent result (%s); iterate a sorted key slice or reduce order-independently",
							selectorPath(n.X), what))
					}
				}
				return true
			})
		}
	}
	return out
}

// isSeededSource reports whether rand.New's argument is itself a
// rand.NewSource/NewPCG/NewChaCha8 call (an explicitly seeded source).
func isSeededSource(randName string, call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	inner, ok := call.Args[0].(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := inner.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	x, ok := sel.X.(*ast.Ident)
	if !ok || x.Name != randName {
		return false
	}
	switch sel.Sel.Name {
	case "NewSource", "NewPCG", "NewChaCha8", "NewZipf":
		return true
	}
	return false
}

// ordersResult reports whether a map-range body produces something that
// depends on iteration order: growing a slice, compound-assignment
// accumulation (float sums are not associative), or direct output.
func ordersResult(body *ast.BlockStmt) (bool, string) {
	found := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			switch n.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				found = "compound assignment " + n.Tok.String()
			}
		case *ast.CallExpr:
			switch fun := n.Fun.(type) {
			case *ast.Ident:
				if fun.Name == "append" {
					found = "append"
				}
			case *ast.SelectorExpr:
				if x, ok := fun.X.(*ast.Ident); ok && x.Name == "fmt" &&
					strings.HasPrefix(fun.Sel.Name, "Print") {
					found = "fmt." + fun.Sel.Name
				}
				if x, ok := fun.X.(*ast.Ident); ok && x.Name == "fmt" &&
					strings.HasPrefix(fun.Sel.Name, "Fprint") {
					found = "fmt." + fun.Sel.Name
				}
			}
		}
		return true
	})
	return found != "", found
}
