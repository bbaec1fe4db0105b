package lint

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// The fixture harness: each analyzer has a testdata/<name>/ directory of
// parse-only Go files carrying `// want "substring"` comments on the
// lines expected to be flagged. Lines without a want comment must stay
// quiet — so every fixture asserts true positives and true negatives in
// one pass, including the nolint escape hatch.

var wantRe = regexp.MustCompile(`// want "([^"]+)"`)

type wantDiag struct {
	line   int
	substr string
}

// loadFixture parses every file in testdata/<dir> into one Package and
// extracts the want comments.
func loadFixture(t *testing.T, dir string) (*Package, []wantDiag) {
	t.Helper()
	root := filepath.Join("testdata", dir)
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	pkg := &Package{Dir: root, ImportPath: "fixture", Fset: fset}
	var wants []wantDiag
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(root, e.Name())
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		af, err := parser.ParseFile(fset, path, src, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		pkg.Files = append(pkg.Files, NewFile(e.Name(), af))
		for i, line := range strings.Split(string(src), "\n") {
			if m := wantRe.FindStringSubmatch(line); m != nil {
				wants = append(wants, wantDiag{line: i + 1, substr: m[1]})
			}
		}
	}
	if len(pkg.Files) == 0 {
		t.Fatalf("no fixture files in %s", root)
	}
	return pkg, wants
}

// checkFixture runs the analyzer over its fixture and requires an exact
// line-by-line match between findings and want comments.
func checkFixture(t *testing.T, a *Analyzer, dir string) {
	t.Helper()
	pkg, wants := loadFixture(t, dir)
	idx := BuildIndex("fixture", []*Package{pkg})
	got := Run([]*Package{pkg}, idx, []*Analyzer{a})

	matched := make([]bool, len(got))
	for _, w := range wants {
		found := false
		for i, f := range got {
			if !matched[i] && f.Pos.Line == w.line && strings.Contains(f.Message, w.substr) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: expected finding at line %d containing %q; analyzer stayed quiet", dir, w.line, w.substr)
		}
	}
	for i, f := range got {
		if !matched[i] {
			t.Errorf("%s: unexpected finding: %s", dir, f)
		}
	}
}

func TestDetsimFixture(t *testing.T)      { checkFixture(t, Detsim(), "detsim") }
func TestLockguardFixture(t *testing.T)   { checkFixture(t, Lockguard(), "lockguard") }
func TestExhaustenumFixture(t *testing.T) { checkFixture(t, Exhaustenum(), "exhaustenum") }

// loadRepo parses the whole module and indexes it.
func loadRepo(t *testing.T) ([]*Package, *Index) {
	t.Helper()
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, module, err := Load(root)
	if err != nil {
		t.Fatal(err)
	}
	if module != "dmpstream" {
		t.Fatalf("unexpected module %q", module)
	}
	return pkgs, BuildIndex(module, pkgs)
}

// TestRepoSelfClean is the gate the CI lint job re-runs via the driver:
// the full default suite over the whole module must report nothing. Any
// new finding means either a real regression or a missing nolint with
// its reason — both belong in the diff that introduced them.
func TestRepoSelfClean(t *testing.T) {
	pkgs, idx := loadRepo(t)
	analyzers := DefaultAnalyzers(idx.Module)
	// The default gate is exactly the kept suite: dropping an analyzer
	// would silently stop enforcing it, and a retired one has a cheaper
	// gate elsewhere (see the package doc).
	var names []string
	for _, a := range analyzers {
		names = append(names, a.Name)
	}
	want := "detsim lockguard exhaustenum"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("default suite = %s, want %s", got, want)
	}
	for _, f := range Run(pkgs, idx, analyzers) {
		t.Errorf("repo not lint-clean: %s", f)
	}
}

// moduleRoot walks up from the test's working directory to go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above test working directory")
		}
		dir = parent
	}
}

// TestNolintPlacement pins the three supported suppression positions:
// trailing same-line, full line above (multi-line group), and enclosing
// function doc.
func TestNolintPlacement(t *testing.T) {
	src := `package p

import "time"

func trailing() {
	_ = time.Now() // nolint:detsim reason
}

func above() {
	// nolint:detsim this reason spans
	// a second comment line
	_ = time.Now()
}

// docSuppressed reads the clock for a log line.
// nolint:detsim whole function is logging
func docSuppressed() {
	_ = time.Now()
}

func unrelatedSuppression() {
	_ = time.Now() // nolint:lockguard wrong analyzer, must still flag
}
`
	fset := token.NewFileSet()
	af, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkg := &Package{ImportPath: "fixture", Fset: fset, Files: []*File{NewFile("p.go", af)}}
	idx := BuildIndex("fixture", []*Package{pkg})
	got := Run([]*Package{pkg}, idx, []*Analyzer{Detsim()})
	if len(got) != 1 {
		t.Fatalf("want exactly the wrong-analyzer finding, got %d: %v", len(got), got)
	}
	if got[0].Pos.Line != 22 {
		t.Fatalf("finding at line %d, want 22 (unrelatedSuppression)", got[0].Pos.Line)
	}
}

// TestDefaultBuildConstraint pins which files Load keeps: those a plain
// `go build` compiles. Without the filter, lockrank's build-tag twins
// on.go and off.go, which declare the same types, would both enter the
// type index.
func TestDefaultBuildConstraint(t *testing.T) {
	for src, want := range map[string]bool{
		"package p\n":                                             true,
		"//go:build lockrank\n\npackage p\n":                      false,
		"//go:build !lockrank\n\npackage p\n":                     true,
		"//go:build !race && !lockrank\n\npackage p\n":            true,
		"//go:build go1.1 && " + runtime.GOOS + "\n\npackage p\n": true,
		"// Doc.\n//\n//go:build ignore\n\npackage p\n":           false,
		"package p\n\n//go:build lockrank\n":                      true, // not a constraint after the package clause
	} {
		af, err := parser.ParseFile(token.NewFileSet(), "p.go", src, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		if got := defaultBuild(af); got != want {
			t.Errorf("defaultBuild(%q) = %v, want %v", src, got, want)
		}
	}
}
