// Exhaustive-switch analysis over the repo's enum types.
//
// The module's behavior ladders are iota enums: core.PathState drives
// the path health machine, core.RejectCode the DMPR overload protocol,
// emunet.FaultKind the scripted fault injector, hub.Policy the lag
// ladder, chaos.Kind the soak schedule's events. Adding a member to any of
// them must force every switch that dispatches on the type to take a
// position — a silently skipped new state is how a degradation ladder
// quietly stops degrading.
//
// An enum is a named type declared in the switching package's module with
// two or more package-level constants of exactly that type; the members
// are read from the type checker's scope of the declaring package. For every
// `switch` whose tag resolves to an enum, the analyzer requires either
// every member covered by a case, or an explicit `default` carrying a
// comment that says why the remainder is safe. A case expression it
// cannot resolve to a member (a call, a local, a constant of another
// type) makes the switch opaque and the analyzer stays quiet, per
// the suite convention; `// nolint:exhaustenum reason` waives a switch.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// enumMembers returns t's members, sorted by name, if t is an enum of
// module; nil otherwise.
func enumMembers(module string, t types.Type) []*types.Const {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil
	}
	if p := named.Obj().Pkg().Path(); p != module && !strings.HasPrefix(p, module+"/") {
		return nil
	}
	scope := named.Obj().Pkg().Scope()
	var members []*types.Const
	for _, name := range scope.Names() {
		if c, ok := scope.Lookup(name).(*types.Const); ok && types.Identical(c.Type(), named) {
			members = append(members, c)
		}
	}
	if len(members) < 2 {
		return nil
	}
	return members
}

// defaultCommented reports whether a default clause carries a comment —
// inside the clause, or trailing on the `default:` line. The clause is
// bounded by the next case or the switch's closing brace, not by
// cc.End(): a comment-only body sits past the last statement.
func defaultCommented(fset *token.FileSet, file *ast.File, sw *ast.SwitchStmt, cc *ast.CaseClause) bool {
	end := sw.Body.Rbrace
	for _, stmt := range sw.Body.List {
		if stmt.Pos() > cc.Pos() && stmt.Pos() < end {
			end = stmt.Pos()
		}
	}
	defLine := fset.Position(cc.Case).Line
	for _, cg := range file.Comments {
		if cg.Pos() >= cc.Pos() && cg.End() <= end {
			return true
		}
		if cg.Pos() > cc.Pos() && fset.Position(cg.Pos()).Line == defLine {
			return true
		}
	}
	return false
}

// Exhaustenum returns the exhaustive-enum-switch analyzer.
func Exhaustenum() *Analyzer {
	return &Analyzer{
		Name: "exhaustenum",
		Run: func(pkg *Package) []Finding {
			var out []Finding
			eachFunc(pkg, func(file *ast.File, fd *ast.FuncDecl) {
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					sw, ok := n.(*ast.SwitchStmt)
					if !ok || sw.Tag == nil {
						return true
					}
					members := enumMembers(pkg.Module, pkg.Info.TypeOf(sw.Tag))
					if members == nil {
						return true
					}
					covered := map[*types.Const]bool{}
					var def *ast.CaseClause
					for _, stmt := range sw.Body.List {
						cc := stmt.(*ast.CaseClause)
						if cc.List == nil {
							def = cc
							continue
						}
						for _, ce := range cc.List {
							c, _ := used(pkg.Info, ce).(*types.Const)
							if !slices.Contains(members, c) {
								return true // opaque case: stay quiet
							}
							covered[c] = true
						}
					}
					var missing []string
					for _, m := range members {
						if !covered[m] {
							missing = append(missing, m.Name())
						}
					}
					if len(missing) == 0 {
						return true
					}
					name := trimModule(pkg.Module, types.TypeString(members[0].Type(), nil))
					switch {
					case def == nil:
						out = append(out, finding(file, sw.Switch, "exhaustenum",
							"switch over %s is not exhaustive: missing %s; add the cases or a commented default",
							name, strings.Join(missing, ", ")))
					case !defaultCommented(pkg.Fset, file, sw, def):
						out = append(out, finding(file, sw.Switch, "exhaustenum",
							"switch over %s relies on an uncommented default for %s; comment the default with why the remainder is safe",
							name, strings.Join(missing, ", ")))
					}
					return true
				})
			})
			return out
		},
	}
}

// trimModule drops the module prefix, so findings name "internal/core.PathState".
func trimModule(module, node string) string {
	return strings.TrimPrefix(strings.TrimPrefix(node, module+"/"), module+".")
}
