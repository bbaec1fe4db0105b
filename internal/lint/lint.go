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
//	wiresafe    wire encoders/decoders index byte slices only behind a
//	            dominating length check, and use big-endian throughout
//	netdeadline server-side net.Conn reads/writes happen in functions
//	            that arm a deadline
//	closecheck  no silently dropped Close() errors outside tests
//	lockorder   the whole-program mutex acquisition graph stays acyclic
//	            (lock-order deadlocks; `dmplint -lockgraph` dumps it)
//	goleak      every goroutine in library packages has a provable exit
//	            path (done channel, bounded loop, or return)
//	atomicmix   a field accessed through sync/atomic anywhere is never
//	            read or written plainly elsewhere
//	hotalloc    no heap allocation inside `// hotpath` functions or
//	            their transitive callees (see hotpath.go)
//	copycheck   no large-struct by-value copies or stray frame-payload
//	            copies on the hot path
//	bufown      `// bufown borrowed` frame-payload slices are never
//	            mutated, retained, or leaked past frame scope (see
//	            bufown.go; `dmplint -bufgraph` dumps the borrow edges)
//	exhaustenum switches over repo enum types cover every member or
//	            carry a commented default
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
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
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
	Severity string // "error" unless the analyzer declares otherwise
	// Suppressed marks findings covered by a nolint comment; Run drops
	// them, RunAll keeps them flagged (the -json schema reports both).
	Suppressed bool

	pos  token.Pos // set by analyzers; resolved into Pos by Run
	file *File
}

// File returns the module-relative path of the file the finding is in
// (stable across machines, unlike Pos.Filename).
func (f Finding) File() string { return f.file.Path }

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
	Doc  string
	// Severity tags the analyzer's findings in -json output; empty means
	// "error".
	Severity string
	// Scope reports whether the analyzer applies to pkg. nil = all
	// packages.
	Scope func(pkg *Package) bool
	Run   func(pkg *Package, idx *Index) []Finding
}

// Load walks the module rooted at root, parses every package, and returns
// the packages plus the module path from go.mod. Directories named
// testdata or vendor, and names starting with "." or "_", are skipped —
// same convention as the go tool.
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

// Run applies each analyzer to each in-scope package, filters nolint
// suppressions, and returns findings sorted by position.
func Run(pkgs []*Package, idx *Index, analyzers []*Analyzer) []Finding {
	all := RunAll(pkgs, idx, analyzers)
	out := all[:0]
	for _, f := range all {
		if !f.Suppressed {
			out = append(out, f)
		}
	}
	return out
}

// RunAll is Run without the suppression filter: nolint-covered findings
// are kept with Suppressed set, so output plumbing (-json) can report
// what was waived alongside what fires. Positions are resolved and
// severity defaulted.
func RunAll(pkgs []*Package, idx *Index, analyzers []*Analyzer) []Finding {
	var out []Finding
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Scope != nil && !a.Scope(pkg) {
				continue
			}
			fs := a.Run(pkg, idx)
			for k := range fs {
				f := &fs[k]
				f.Pos = pkg.Fset.Position(f.pos)
				f.Severity = a.Severity
				if f.Severity == "" {
					f.Severity = "error"
				}
				f.Suppressed = suppressed(pkg.Fset, *f)
			}
			out = append(out, fs...)
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
	nd := Netdeadline()
	nd.Scope = pkgIn(module, "internal/hub", "internal/core", "internal/emunet", "cmd/dmpserve")
	// goleak targets long-lived library code: a leaked goroutine in a
	// main (or example) dies with the process, but one per hub join or
	// relay connection accumulates forever.
	gl := Goleak()
	gl.Scope = pkgPrefix(module, "internal")
	return []*Analyzer{det, Lockguard(), Wiresafe(), nd, Closecheck(), Lockorder(), gl, Atomicmix(),
		Hotalloc(), Copycheck(0), Bufown(), Exhaustenum()}
}

func pkgIn(module string, rels ...string) func(*Package) bool {
	set := map[string]bool{}
	for _, r := range rels {
		set[module+"/"+r] = true
	}
	return func(p *Package) bool { return set[p.ImportPath] }
}

// pkgPrefix scopes an analyzer to a subtree of the module.
func pkgPrefix(module string, rels ...string) func(*Package) bool {
	return func(p *Package) bool {
		for _, r := range rels {
			pre := module + "/" + r
			if p.ImportPath == pre || strings.HasPrefix(p.ImportPath, pre+"/") {
				return true
			}
		}
		return false
	}
}
