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
// An enum is a module named type with two or more typed package-level
// constants (iota runs count through continuation specs). For every
// `switch` whose tag resolves to an enum, the analyzer requires either
// every member covered by a case, or an explicit `default` carrying a
// comment that says why the remainder is safe. A case expression it
// cannot resolve to a member (a call, a local, a constant from a third
// package) makes the switch opaque and the analyzer stays quiet, per
// the suite convention; `// nolint:exhaustenum reason` waives a switch.
package lint

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// enumInfo is one module enum type's member set.
type enumInfo struct {
	members []string // declaration order, deduplicated
	set     map[string]bool
}

// enums lazily builds the module-wide enum table, keyed "pkgpath.Type".
func (idx *Index) enums() map[string]*enumInfo {
	idx.enumOnce.Do(func() {
		idx.enumIdx = buildEnumIndex(idx)
	})
	return idx.enumIdx
}

func buildEnumIndex(idx *Index) map[string]*enumInfo {
	enums := map[string]*enumInfo{}
	add := func(key, member string) {
		info := enums[key]
		if info == nil {
			info = &enumInfo{set: map[string]bool{}}
			enums[key] = info
		}
		if !info.set[member] {
			info.set[member] = true
			info.members = append(info.members, member)
		}
	}
	for _, pkg := range idx.pkgs {
		for _, file := range pkg.Files {
			if file.Test {
				continue
			}
			for _, decl := range file.AST.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.CONST {
					continue
				}
				// Track the "current type" through an iota run: an
				// explicit Type starts one, specs with neither Type nor
				// Values continue it, untyped values end it.
				cur := ""
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					if vs.Type != nil {
						cur = ""
						t := resolveType(file, pkg.ImportPath, vs.Type)
						if t != nil && t.Path != "" && !t.Ptr && !t.Slice && !t.Array && !t.Map {
							cur = t.Path + "." + t.Name
						}
					} else if len(vs.Values) > 0 {
						cur = ""
					}
					if cur == "" {
						continue
					}
					for _, name := range vs.Names {
						if name.Name != "_" {
							add(cur, name.Name)
						}
					}
				}
			}
		}
	}
	for key, info := range enums {
		if len(info.members) < 2 {
			delete(enums, key)
		}
	}
	return enums
}

// defaultCommented reports whether a default clause carries a comment —
// inside the clause, or trailing on the `default:` line. The clause is
// bounded by the next case or the switch's closing brace, not by
// cc.End(): a comment-only body sits past the last statement.
func defaultCommented(fset *token.FileSet, file *File, sw *ast.SwitchStmt, cc *ast.CaseClause) bool {
	end := sw.Body.Rbrace
	for _, stmt := range sw.Body.List {
		if stmt.Pos() > cc.Pos() && stmt.Pos() < end {
			end = stmt.Pos()
		}
	}
	defLine := fset.Position(cc.Case).Line
	for _, cg := range file.AST.Comments {
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
		Run: func(pkg *Package, idx *Index) []Finding {
			enums := idx.enums()
			var out []Finding
			eachFunc(pkg, func(file *File, fd *ast.FuncDecl) {
				e := funcEnv(idx, pkg, file, fd)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					sw, ok := n.(*ast.SwitchStmt)
					if !ok || sw.Tag == nil {
						return true
					}
					t := e.typeOf(sw.Tag)
					if t == nil || t.Ptr || t.Slice || t.Array || t.Map || t.Path == "" {
						return true
					}
					info := enums[t.Path+"."+t.Name]
					if info == nil {
						return true
					}
					covered := map[string]bool{}
					var def *ast.CaseClause
					for _, stmt := range sw.Body.List {
						cc, ok := stmt.(*ast.CaseClause)
						if !ok {
							continue
						}
						if cc.List == nil {
							def = cc
							continue
						}
						for _, ce := range cc.List {
							switch ce := ce.(type) {
							case *ast.Ident:
								if t.Path != pkg.ImportPath || !info.set[ce.Name] {
									return true // opaque case: stay quiet
								}
								covered[ce.Name] = true
							case *ast.SelectorExpr:
								x, ok := ce.X.(*ast.Ident)
								if !ok {
									return true
								}
								imp, ok := file.Imports[x.Name]
								if !ok || imp != t.Path || !info.set[ce.Sel.Name] {
									return true
								}
								covered[ce.Sel.Name] = true
							default:
								return true
							}
						}
					}
					var missing []string
					for _, m := range info.members {
						if !covered[m] {
							missing = append(missing, m)
						}
					}
					if len(missing) == 0 {
						return true
					}
					sort.Strings(missing)
					name := trimModule(idx.Module, t.Path+"."+t.Name)
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
