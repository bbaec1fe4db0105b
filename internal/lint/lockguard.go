package lint

import (
	"go/ast"
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
// This is a heuristic lexical check, not an escape/alias analysis: it
// sees accesses through receivers, parameters and resolvable selector
// chains. It is sound enough to catch the common regressions — a new
// method touching shared hub/session state without the lock, or touching
// it again after releasing.
func Lockguard() *Analyzer {
	return &Analyzer{
		Name: "lockguard",
		Run:  runLockguard,
	}
}

var guardedRe = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_.]*)`)

// guardedKey records one annotated field.
type guardedKey struct{ typeName, field string }

func runLockguard(pkg *Package, idx *Index) []Finding {
	guarded := collectGuarded(pkg)
	if len(guarded) == 0 {
		return nil
	}
	var out []Finding
	eachFunc(pkg, func(file *File, fd *ast.FuncDecl) {
		callerHolds := strings.HasSuffix(fd.Name.Name, "Locked") ||
			(fd.Doc != nil && strings.Contains(strings.ToLower(fd.Doc.Text()), "holds"))
		if callerHolds {
			return
		}
		e := funcEnv(idx, pkg, file, fd)
		scopes := collectLockScopes(fd)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			base := e.typeOf(sel.X)
			if base == nil || base.Path != pkg.ImportPath {
				return true
			}
			mu, ok := guarded[guardedKey{base.Name, sel.Sel.Name}]
			if !ok {
				return true
			}
			sc := innermostScope(scopes, sel.Pos())
			if sc == nil || sc.heldByName(mu, sel.Pos()) {
				return true
			}
			out = append(out, finding(file, sel.Pos(), "lockguard",
				"%s.%s is guarded by %s but %s does not hold it at this access",
				base.Name, sel.Sel.Name, mu, sc.fnName))
			return true
		})
	})
	return out
}

// collectGuarded finds `guarded by <mu>` annotations on struct fields.
// The mutex is identified by the final path element, so "guarded by mu"
// and "guarded by h.mu" both demand a <chain>.mu.Lock() call.
func collectGuarded(pkg *Package) map[guardedKey]string {
	guarded := map[guardedKey]string{}
	for _, file := range pkg.Files {
		if file.Test {
			continue
		}
		ast.Inspect(file.AST, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, f := range st.Fields.List {
				text := ""
				if f.Doc != nil {
					text += f.Doc.Text()
				}
				if f.Comment != nil {
					text += f.Comment.Text()
				}
				m := guardedRe.FindStringSubmatch(text)
				if m == nil {
					continue
				}
				mu := m[1]
				if i := strings.LastIndex(mu, "."); i >= 0 {
					mu = mu[i+1:]
				}
				for _, name := range f.Names {
					guarded[guardedKey{ts.Name.Name, name.Name}] = mu
				}
			}
			return true
		})
	}
	return guarded
}
