// Package lint implements dmplint, the repo-invariant static-analysis
// suite. It is built on the standard library and the go command only:
// Load asks `go list -deps -export` which files a default build compiles
// (so a build-tagged twin such as lockrank's on.go stays out), parses
// them, and type-checks every non-standard package with go/types, reading
// standard packages from the export data the go command built. Each
// analyzer works on the ASTs and asks the exact type checker (types.Info)
// what an identifier or expression is — no external driver, so the module
// keeps zero dependencies.
//
// Analyzers (see DESIGN.md "Enforced invariants"):
//
//	detsim      no wall-clock time, unseeded randomness, or map-order
//	            dependent results in the deterministic model packages
//	lockguard   fields documented `guarded by <mu>` are only touched by
//	            functions that lock that mutex first
//	exhaustenum switches over repo enum types cover every member or
//	            carry a commented default
//
// Defect classes a cheaper gate already convicts have no analyzer here:
// goroutine leaks (chaos leak check), mixed atomic access (vet, race
// detector), wire indexing and byte order (fuzz corpora), missing write
// deadlines (stall-timeout tests), stray payload copies and retained
// aliases (TestZeroCopyDeliveryAliasesRing, the PoisonPool alias scan),
// lock-order inversions (`go test -tags lockrank`) and per-frame heap
// allocations (`make allocs`). A dropped Close error was a style rule and
// is not checked.
//
// Any finding can be suppressed with an inline escape hatch:
//
//	// nolint:<analyzer> <reason>
//
// on the offending line, the line above it, or in the enclosing
// function's doc comment. Suppressions should carry a reason.
package lint

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
)

// Package is one type-checked package.
type Package struct {
	ImportPath string
	Module     string // path of the module the package belongs to
	Fset       *token.FileSet
	Files      []*ast.File
	Info       *types.Info
}

// Finding is one diagnostic.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string

	pos  token.Pos // set by analyzers; resolved into Pos by Run
	file *ast.File
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// finding is the constructor analyzers use.
func finding(file *ast.File, pos token.Pos, analyzer, format string, args ...any) Finding {
	return Finding{pos: pos, file: file, Analyzer: analyzer, Message: fmt.Sprintf(format, args...)}
}

// Analyzer is one named check over a package.
type Analyzer struct {
	Name  string
	Scope func(pkg *Package) bool // whether the analyzer applies; nil = all
	Run   func(pkg *Package) []Finding
}

// listed is the part of `go list -json` output Load reads.
type listed struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// Load type-checks the packages the go command resolves patterns to in
// dir, and returns them in dependency order. Their non-standard
// dependencies are checked from source too but not returned; standard
// packages are read from export data. File names are relative to dir.
func Load(dir string, patterns ...string) ([]*Package, error) {
	cmd := exec.Command("go", append([]string{"list", "-e", "-json", "-export", "-deps", "--"}, patterns...)...)
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list: %w", err)
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	exports := map[string]string{}
	checked := map[string]*types.Package{}
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})}

	var pkgs []*Package
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var lp listed
		if err := dec.Decode(&lp); err != nil {
			return nil, fmt.Errorf("lint: go list: %w", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("lint: %s", lp.Error.Err)
		}
		if lp.Standard {
			exports[lp.ImportPath] = lp.Export
			continue
		}
		pkg := &Package{ImportPath: lp.ImportPath, Fset: fset}
		for _, name := range lp.GoFiles {
			path := filepath.Join(lp.Dir, name)
			if rel, err := filepath.Rel(abs, path); err == nil {
				path = rel
			}
			af, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("lint: %w", err)
			}
			pkg.Files = append(pkg.Files, af)
		}
		if lp.Module != nil {
			pkg.Module = lp.Module.Path
		}
		if !lp.DepOnly {
			pkg.Info = &types.Info{
				Types:      map[ast.Expr]types.TypeAndValue{},
				Defs:       map[*ast.Ident]types.Object{},
				Uses:       map[*ast.Ident]types.Object{},
				Selections: map[*ast.SelectorExpr]*types.Selection{},
			}
			pkgs = append(pkgs, pkg)
		}
		if checked[lp.ImportPath], err = conf.Check(lp.ImportPath, fset, pkg.Files, pkg.Info); err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
	}
	return pkgs, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// eachFunc invokes fn for every function declaration with a body in pkg.
func eachFunc(pkg *Package, fn func(file *ast.File, decl *ast.FuncDecl)) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(file, fd)
			}
		}
	}
}

// used returns the object an identifier or a selector's final identifier
// (pkg.F, x.f) refers to, or nil.
func used(info *types.Info, e ast.Expr) types.Object {
	switch e := e.(type) {
	case *ast.Ident:
		return info.Uses[e]
	case *ast.SelectorExpr:
		return info.Uses[e.Sel]
	}
	return nil
}

// pkgFunc returns the package path and name of the package-level function
// or builtin (path "") call invokes; name is "" for anything else: a
// method, a function value, a conversion.
func pkgFunc(info *types.Info, call *ast.CallExpr) (path, name string) {
	switch obj := used(info, call.Fun).(type) {
	case *types.Builtin:
		return "", obj.Name()
	case *types.Func:
		if obj.Pkg() != nil && obj.Type().(*types.Signature).Recv() == nil {
			return obj.Pkg().Path(), obj.Name()
		}
	}
	return "", ""
}

// Run applies each analyzer to each in-scope package, drops findings
// covered by a nolint comment, and returns the rest sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	var out []Finding
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Scope != nil && !a.Scope(pkg) {
				continue
			}
			for _, f := range a.Run(pkg) {
				f.Pos = pkg.Fset.Position(f.pos)
				if !suppressed(pkg.Fset, f) {
					out = append(out, f)
				}
			}
		}
	}
	// A total order over every reported field, so ties cannot reorder.
	slices.SortFunc(out, func(a, b Finding) int {
		return cmp.Or(strings.Compare(a.Pos.Filename, b.Pos.Filename), cmp.Compare(a.Pos.Line, b.Pos.Line),
			strings.Compare(a.Analyzer, b.Analyzer), cmp.Compare(a.Pos.Column, b.Pos.Column),
			strings.Compare(a.Message, b.Message))
	})
	return out
}

var nolintRe = regexp.MustCompile(`nolint:([A-Za-z0-9_,]+)`)

// suppressed reports whether a nolint comment covers the finding: a
// comment group ending on the same line or the line directly above
// (multi-line nolint reasons count as one group), or the enclosing
// function's doc comment.
func suppressed(fset *token.FileSet, f Finding) bool {
	line := f.Pos.Line
	for _, cg := range f.file.Comments {
		end := fset.Position(cg.End()).Line
		if end != line && end != line-1 {
			continue
		}
		for _, c := range cg.List {
			if nolintMatches(c.Text, f.Analyzer) {
				return true
			}
		}
	}
	// Enclosing function doc comment.
	for _, decl := range f.file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Pos() <= f.pos && f.pos <= fd.End() &&
			nolintMatches(fd.Doc.Text(), f.Analyzer) {
			return true
		}
	}
	return false
}

func nolintMatches(comment, analyzer string) bool {
	for _, m := range nolintRe.FindAllStringSubmatch(comment, -1) {
		if slices.Contains(strings.Split(m[1], ","), analyzer) {
			return true
		}
	}
	return false
}

// DefaultAnalyzers returns the full suite with repo scoping applied.
func DefaultAnalyzers() []*Analyzer {
	det := Detsim()
	det.Scope = pkgIn("internal/sim", "internal/tcpsim", "internal/netsim", "internal/dmpmodel",
		"internal/markov", "internal/simstream", "internal/exps")
	return []*Analyzer{det, Lockguard(), Exhaustenum()}
}

// pkgIn scopes an analyzer to the packages at the given paths relative
// to their module root.
func pkgIn(rels ...string) func(*Package) bool {
	return func(p *Package) bool {
		rel, ok := strings.CutPrefix(p.ImportPath, p.Module+"/")
		return ok && slices.Contains(rels, rel)
	}
}
