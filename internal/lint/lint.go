// Package lint implements dmplint, the repo-invariant static-analysis
// suite. It is built on the standard library only (go/parser + go/ast +
// go/token): packages are loaded by walking the module tree and parsing
// every file, and each analyzer works syntactically on the ASTs with a
// best-effort type-inference layer (see types.go) — no go/types loader, no
// external driver, so the module keeps zero dependencies.
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
// goroutine leaks (the chaos harness's leak check), mixed atomic access
// (`go vet` copylocks and the race detector), unchecked wire indexing
// and byte order (the parsers' fuzz seed corpora), missing write
// deadlines (the stall-timeout tests), stray payload copies
// (TestZeroCopyDeliveryAliasesRing in internal/hub), lock-order
// inversions (the internal/lockrank check, `go test -tags lockrank`),
// retained payload aliases (the alias scan of a PoisonPool hub's
// PoolCheck) and heap allocations in the per-frame loops of the sender,
// the hub and the registry (the AllocsPerRun gates, `make allocs`). A
// dropped Close error was a style rule and is not checked.
//
// Any finding can be suppressed with an inline escape hatch:
//
//	// nolint:<analyzer> <reason>
//
// on the offending line, the line above it, or in the enclosing
// function's doc comment. Suppressions should carry a reason.
package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/build/constraint"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
)

// File is one parsed source file.
type File struct {
	Path string // path relative to the module root
	AST  *ast.File
	Test bool // *_test.go

	// Imports maps the local name of each import to its path
	// ("rand" → "math/rand").
	Imports map[string]string
}

// Package is one directory's worth of parsed files.
type Package struct {
	Dir        string // absolute directory
	ImportPath string // module-qualified import path
	Fset       *token.FileSet
	Files      []*File
}

// Finding is one diagnostic.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string

	pos  token.Pos // set by analyzers; resolved into Pos by Run
	file *File
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// finding is the constructor analyzers use.
func finding(file *File, pos token.Pos, analyzer, format string, args ...any) Finding {
	return Finding{pos: pos, file: file, Analyzer: analyzer, Message: fmt.Sprintf(format, args...)}
}

// Analyzer is one named check over a package.
type Analyzer struct {
	Name string
	// Scope reports whether the analyzer applies to pkg. nil = all
	// packages.
	Scope func(pkg *Package) bool
	Run   func(pkg *Package, idx *Index) []Finding
}

// Load walks the module rooted at root, parses every package, and returns
// the packages plus the module path from go.mod. Directories named
// testdata or vendor, and names starting with "." or "_", are skipped —
// same convention as the go tool — and so are files whose //go:build line
// leaves them out of the default build (the lockrank build's checker).
func Load(root string) ([]*Package, string, error) {
	modBytes, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, "", fmt.Errorf("lint: %s is not a module root: %w", root, err)
	}
	module := ""
	for _, line := range strings.Split(string(modBytes), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			module = strings.TrimSpace(rest)
			break
		}
	}
	if module == "" {
		return nil, "", fmt.Errorf("lint: no module line in %s/go.mod", root)
	}

	fset := token.NewFileSet()
	var pkgs []*Package
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		pkg, err := loadDir(fset, root, module, path)
		if err != nil {
			return err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
		return nil
	})
	if err != nil {
		return nil, "", err
	}
	return pkgs, module, nil
}

func loadDir(fset *token.FileSet, root, module, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return nil, err
	}
	importPath := module
	if rel != "." {
		importPath = module + "/" + filepath.ToSlash(rel)
	}
	pkg := &Package{Dir: dir, ImportPath: importPath, Fset: fset}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		af, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		if !defaultBuild(af) {
			continue
		}
		relName := name
		if rel != "." {
			relName = filepath.ToSlash(rel) + "/" + name
		}
		pkg.Files = append(pkg.Files, NewFile(relName, af))
	}
	if len(pkg.Files) == 0 {
		return nil, nil
	}
	return pkg, nil
}

// defaultBuild reports whether af's //go:build line, if any, holds with
// no tags beyond the host's default build context: GOOS, GOARCH, the
// compiler and the release tags.
func defaultBuild(af *ast.File) bool {
	for _, cg := range af.Comments {
		if cg.Pos() > af.Package {
			break
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				return true
			}
			ctx := build.Default
			return expr.Eval(func(tag string) bool {
				return tag == ctx.GOOS || tag == ctx.GOARCH || tag == ctx.Compiler || slices.Contains(ctx.ReleaseTags, tag)
			})
		}
	}
	return true
}

// NewFile wraps a parsed AST as a lint File, deriving the import table.
// Exposed for tests that build fixture packages by hand.
func NewFile(path string, af *ast.File) *File {
	f := &File{Path: path, AST: af, Test: strings.HasSuffix(path, "_test.go"), Imports: map[string]string{}}
	for _, imp := range af.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		local := p[strings.LastIndex(p, "/")+1:]
		if imp.Name != nil {
			local = imp.Name.Name
		}
		f.Imports[local] = p
	}
	return f
}

// Run applies each analyzer to each in-scope package, drops findings
// covered by a nolint comment, and returns the rest sorted by position.
func Run(pkgs []*Package, idx *Index, analyzers []*Analyzer) []Finding {
	var out []Finding
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Scope != nil && !a.Scope(pkg) {
				continue
			}
			for _, f := range a.Run(pkg, idx) {
				f.Pos = pkg.Fset.Position(f.pos)
				if !suppressed(pkg.Fset, f) {
					out = append(out, f)
				}
			}
		}
	}
	sortFindings(out)
	return out
}

// sortFindings orders findings for output. The comparator is a total
// order over every reported field (file, line, analyzer, column,
// message), so sort.Slice's instability cannot reorder ties.
func sortFindings(out []Finding) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
}

var nolintRe = regexp.MustCompile(`nolint:([A-Za-z0-9_,]+)`)

// suppressed reports whether a nolint comment covers the finding: a
// comment group ending on the same line or the line directly above
// (multi-line nolint reasons count as one group), or the enclosing
// function's doc comment.
func suppressed(fset *token.FileSet, f Finding) bool {
	line := f.Pos.Line
	for _, cg := range f.file.AST.Comments {
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
	for _, decl := range f.file.AST.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Doc == nil {
			continue
		}
		if fd.Pos() <= f.pos && f.pos <= fd.End() && nolintMatches(fd.Doc.Text(), f.Analyzer) {
			return true
		}
	}
	return false
}

func nolintMatches(comment, analyzer string) bool {
	for _, m := range nolintRe.FindAllStringSubmatch(comment, -1) {
		for _, name := range strings.Split(m[1], ",") {
			if name == analyzer {
				return true
			}
		}
	}
	return false
}

// DefaultAnalyzers returns the full suite with repo scoping applied.
// module is the module path from Load.
func DefaultAnalyzers(module string) []*Analyzer {
	det := Detsim()
	det.Scope = pkgIn(module,
		"internal/sim", "internal/tcpsim", "internal/netsim", "internal/dmpmodel",
		"internal/markov", "internal/simstream", "internal/exps")
	return []*Analyzer{det, Lockguard(), Exhaustenum()}
}

func pkgIn(module string, rels ...string) func(*Package) bool {
	set := map[string]bool{}
	for _, r := range rels {
		set[module+"/"+r] = true
	}
	return func(p *Package) bool { return set[p.ImportPath] }
}
