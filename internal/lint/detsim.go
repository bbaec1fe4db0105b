package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Detsim forbids nondeterminism in the model/simulator packages: wall
// clock reads (time.Now, time.Since), global or unseeded math/rand use,
// and map iteration whose body accumulates an order-dependent result
// (append, compound assignment, printing). The paper-validation numbers
// (Tables 2-3, Figs 4-5) must be bit-reproducible run to run.
func Detsim() *Analyzer {
	return &Analyzer{Name: "detsim", Run: runDetsim}
}

func runDetsim(pkg *Package) []Finding {
	var out []Finding
	eachFunc(pkg, func(file *ast.File, fd *ast.FuncDecl) {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				path, name := pkgFunc(pkg.Info, n)
				switch rand := isRand(path); {
				case path == "time" && (name == "Now" || name == "Since"):
					out = append(out, finding(file, n.Pos(), "detsim",
						"time.%s in deterministic package %s; thread simulated time instead",
						name, pkg.ImportPath))
				case rand && name == "New":
					if !isSeededSource(pkg.Info, n) {
						out = append(out, finding(file, n.Pos(), "detsim",
							"rand.New without an explicit rand.NewSource(seed) argument"))
					}
				case rand && !strings.HasPrefix(name, "New"): // the process-wide source
					out = append(out, finding(file, n.Pos(), "detsim",
						"global math/rand.%s draws from the shared unseeded source; use rand.New(rand.NewSource(seed))",
						name))
				}
			case *ast.RangeStmt:
				if _, ok := pkg.Info.TypeOf(n.X).Underlying().(*types.Map); !ok {
					return true
				}
				if feed, what := ordersResult(pkg.Info, n.Body); feed {
					out = append(out, finding(file, n.Pos(), "detsim",
						"iteration over map %s feeds an order-dependent result (%s); iterate a sorted key slice or reduce order-independently",
						types.ExprString(n.X), what))
				}
			}
			return true
		})
	})
	return out
}

func isRand(path string) bool { return path == "math/rand" || path == "math/rand/v2" }

// isSeededSource reports whether rand.New's argument is itself a rand
// constructor call: NewSource, NewPCG or NewChaCha8, the only ones whose
// result type-checks as a Source (an explicitly seeded source).
func isSeededSource(info *types.Info, call *ast.CallExpr) bool {
	inner, ok := call.Args[0].(*ast.CallExpr)
	if !ok {
		return false
	}
	path, name := pkgFunc(info, inner)
	return isRand(path) && strings.HasPrefix(name, "New")
}

// ordersResult reports whether a map-range body produces something that
// depends on iteration order: growing a slice, compound-assignment
// accumulation (float sums are not associative), or direct output.
func ordersResult(info *types.Info, body *ast.BlockStmt) (bool, string) {
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
			switch path, name := pkgFunc(info, n); {
			case path == "" && name == "append":
				found = "append"
			case path == "fmt" && (strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint")):
				found = "fmt." + name
			}
		}
		return true
	})
	return found != "", found
}
