package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// The fixture harness: each analyzer has a testdata/<name>/ package,
// loaded and type-checked like any other, whose `// want "substring"`
// comments mark the lines expected to be flagged. Lines without a want
// comment must stay quiet — so every fixture asserts true positives and
// true negatives in one pass, including the nolint escape hatch.

var wantRe = regexp.MustCompile(`// want "([^"]+)"`)

type wantDiag struct {
	line   int
	substr string
}

// loadFixture loads testdata/<dir> and extracts its want comments.
func loadFixture(t *testing.T, dir string) (*Package, []wantDiag) {
	t.Helper()
	pkgs, err := Load(".", "./testdata/"+dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("testdata/%s: loaded %d packages, want 1", dir, len(pkgs))
	}
	var wants []wantDiag
	for _, af := range pkgs[0].Files {
		path := pkgs[0].Fset.Position(af.Package).Filename
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			if m := wantRe.FindStringSubmatch(line); m != nil {
				wants = append(wants, wantDiag{line: i + 1, substr: m[1]})
			}
		}
	}
	return pkgs[0], wants
}

// checkFixture runs the analyzer over its fixture and requires an exact
// line-by-line match between findings and want comments.
func checkFixture(t *testing.T, a *Analyzer, dir string) {
	t.Helper()
	pkg, wants := loadFixture(t, dir)
	got := Run([]*Package{pkg}, []*Analyzer{a})

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

// TestNolintPlacement pins the three supported suppression positions:
// trailing same-line, full line above (multi-line group), and enclosing
// function doc; a nolint for another analyzer must still flag.
func TestNolintPlacement(t *testing.T) { checkFixture(t, Detsim(), "nolint") }

// TestRepoSelfClean is the gate the CI lint job re-runs via the driver:
// the full default suite over the whole module must report nothing. Any
// new finding means either a real regression or a missing nolint with
// its reason — both belong in the diff that introduced them.
func TestRepoSelfClean(t *testing.T) {
	pkgs, err := Load(".", "dmpstream/...")
	if err != nil {
		t.Fatal(err)
	}
	analyzers := DefaultAnalyzers()
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
	for _, f := range Run(pkgs, analyzers) {
		t.Errorf("repo not lint-clean: %s", f)
	}
}

// TestDefaultBuildConstraint pins which files Load keeps: those a plain
// `go build` compiles. lockrank's build-tag twins on.go and off.go
// declare the same types, so both together would not type-check.
func TestDefaultBuildConstraint(t *testing.T) {
	pkgs, err := Load(".", "dmpstream/internal/lockrank")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	var names []string
	for _, af := range pkgs[0].Files {
		names = append(names, filepath.Base(pkgs[0].Fset.Position(af.Package).Filename))
	}
	slices.Sort(names)
	if got := strings.Join(names, " "); got != "lockrank.go off.go" {
		t.Errorf("lockrank files = %s, want lockrank.go off.go", got)
	}
}
