package lint

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

// Lockguard enforces `guarded by <mu>` field annotations: a struct field
// whose doc or line comment says "guarded by mu" may only be read or
// written while that mutex is lexically held. Held regions come from the
// shared lock-state machinery (lockstate.go): Lock/RLock open an
// interval, the matching Unlock/RUnlock closes it (`defer` extends it to
// the end of the scope, an unlock on an early-exit path does not cut the
// mainline), and Lock/Unlock pair independently of RLock/RUnlock. An
// access after an explicit unlock is therefore a finding — the
// false-negative the original lexically-any-earlier-Lock heuristic had.
//
// Function literals form their own scopes: a goroutine or callback does
// not inherit the enclosing function's held set, so a literal touching
// guarded state must lock for itself. Functions named *Locked, and
// functions whose doc comment says the caller holds the mutex, are exempt
// — they encode the lock-is-already-held convention.
//
// Accesses are found by the type checker's field selections, through any
// expression: receivers, parameters, package-level variables, call
// results. The hold is lexical, not an escape/alias analysis, but sound
// enough to catch the common regressions — a new method touching shared
// hub/session state without the lock, or touching it again after
// releasing.
func Lockguard() *Analyzer {
	return &Analyzer{Name: "lockguard", Run: runLockguard}
}

var guardedRe = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_.]*)`)

// guard records one annotated field: the struct that declares it and the
// name of its mutex.
type guard struct{ typeName, mu string }

func runLockguard(pkg *Package) []Finding {
	guarded := collectGuarded(pkg)
	if len(guarded) == 0 {
		return nil
	}
	var out []Finding
	eachFunc(pkg, func(file *ast.File, fd *ast.FuncDecl) {
		callerHolds := strings.HasSuffix(fd.Name.Name, "Locked") ||
			strings.Contains(strings.ToLower(fd.Doc.Text()), "holds")
		if callerHolds {
			return
		}
		scopes := collectLockScopes(fd)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			s := pkg.Info.Selections[sel]
			if s == nil || s.Kind() != types.FieldVal {
				return true
			}
			g, ok := guarded[s.Obj().(*types.Var).Origin()]
			if !ok {
				return true
			}
			sc := innermostScope(scopes, sel.Pos())
			if sc == nil || sc.heldByName(g.mu, sel.Pos()) {
				return true
			}
			out = append(out, finding(file, sel.Pos(), "lockguard",
				"%s.%s is guarded by %s but %s does not hold it at this access",
				g.typeName, sel.Sel.Name, g.mu, sc.fnName))
			return true
		})
	})
	return out
}

// collectGuarded finds `guarded by <mu>` annotations on struct fields.
// The mutex is identified by the final path element, so "guarded by mu"
// and "guarded by h.mu" both demand a <chain>.mu.Lock() call.
func collectGuarded(pkg *Package) map[*types.Var]guard {
	guarded := map[*types.Var]guard{}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, f := range st.Fields.List {
				m := guardedRe.FindStringSubmatch(f.Doc.Text() + f.Comment.Text())
				if m == nil {
					continue
				}
				mu := m[1][strings.LastIndex(m[1], ".")+1:]
				for _, name := range f.Names {
					guarded[pkg.Info.Defs[name].(*types.Var)] = guard{ts.Name.Name, mu}
				}
			}
			return true
		})
	}
	return guarded
}
