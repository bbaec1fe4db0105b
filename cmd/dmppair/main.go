// Command dmppair compares one package's Go benchmarks between a parent
// revision and the working tree, in alternating pairs of runs, and says
// whether the difference is more than noise.
//
// The parent's committed files are exported with `git archive` under
// -dir; both sides are built with `go test -c`, then run N times each,
// the order flipped every pair (parent first, then change first) so a
// drift in the machine's speed falls on both sides alike. For every
// benchmark and every unit it reports (ns/op, B/op, allocs/op and custom
// metrics) it prints each side's median and quartiles, how many of the N
// pairs the change read lower, and a two-sided sign test over the pairs
// that differ: "change lower" or "change higher" at p < 0.05, otherwise
// "no difference". With N = 10 a verdict needs 9 pairs of 10 one way; with
// N < 6 no verdict is possible and the run only smoke-tests the tool.
//
// Usage:
//
//	dmppair -parent HEAD~1 -pkg ./internal/hub -bench BenchmarkTickFanout -n 10
//	make bench-pair PARENT=HEAD~1 PKG=./internal/hub BENCH=BenchmarkGeneratorTick N=10
//
// It exits non-zero only if a step fails: git, the build, or a benchmark
// run.
package main

import (
	"archive/tar"
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

func main() {
	var (
		parent    = flag.String("parent", "HEAD", "git revision to compare the working tree against")
		pkg       = flag.String("pkg", "", "package whose benchmarks run, as go test names it (required)")
		bench     = flag.String("bench", ".", "benchmark regexp (go test -bench)")
		n         = flag.Int("n", 10, "pairs of runs")
		benchtime = flag.String("benchtime", "", "go test -benchtime for every run (default: go test's)")
		dir       = flag.String("dir", ".bench_pair", "directory for the parent's export and both test binaries")
	)
	flag.Parse()
	if *pkg == "" || *n < 1 {
		fmt.Fprintln(os.Stderr, "dmppair: -pkg is required and -n must be at least 1")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*parent, *pkg, *bench, *benchtime, *dir, *n); err != nil {
		fmt.Fprintln(os.Stderr, "dmppair:", err)
		os.Exit(1)
	}
}

// side is one tree under comparison: its built test binary, the package
// directory it runs in, and every value each benchmark metric read.
type side struct {
	name, bin, pkgDir string
	runs              map[metric][]float64
}

// metric is one number a benchmark line reports.
type metric struct{ bench, unit string }

func run(parent, pkg, bench, benchtime, dir string, n int) error {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return err
	}
	sha, err := output("", "git", "rev-parse", "--verify", parent+"^{commit}")
	if err != nil {
		return err
	}
	sha = strings.TrimSpace(sha)
	tree := filepath.Join(dir, sha)
	if err := export(sha, tree); err != nil {
		return err
	}
	par, err := build("parent", tree, pkg, filepath.Join(dir, "parent.test"))
	if err != nil {
		return err
	}
	chg, err := build("change", ".", pkg, filepath.Join(dir, "change.test"))
	if err != nil {
		return err
	}
	fmt.Printf("parent %s vs working tree: %s -bench %q, %d pairs\n", sha[:12], pkg, bench, n)
	args := []string{"-test.run", "^$", "-test.bench", bench, "-test.benchmem", "-test.timeout", "10m"}
	if benchtime != "" {
		args = append(args, "-test.benchtime", benchtime)
	}
	for i := 0; i < n; i++ {
		order := []*side{par, chg}
		if i%2 == 1 {
			order[0], order[1] = chg, par
		}
		for _, s := range order {
			out, err := output(s.pkgDir, s.bin, args...)
			if err != nil {
				return fmt.Errorf("%s run %d: %w", s.name, i+1, err)
			}
			parseBench(out, s.runs)
		}
	}
	return report(os.Stdout, par.runs, chg.runs, n)
}

// export writes the files committed at sha under tree, once: a tree
// already there is reused. It reads `git archive` with archive/tar, into
// a temporary directory renamed into place, so an interrupted export is
// never mistaken for a whole one.
func export(sha, tree string) error {
	if _, err := os.Stat(tree); err == nil {
		return nil
	}
	tmp := tree + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return err
	}
	cmd := exec.Command("git", "archive", "--format=tar", sha)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	xerr := untar(out, tmp)
	_, _ = io.Copy(io.Discard, out) // lets git exit if the extraction stopped early
	if err := cmd.Wait(); err != nil {
		return fmt.Errorf("git archive %s: %w: %s", sha, err, stderr.String())
	}
	if xerr != nil {
		return xerr
	}
	return os.Rename(tmp, tree)
}

// untar extracts the regular files and directories of a tar stream under
// root, refusing any name that would land outside it.
func untar(r io.Reader, root string) error {
	tr := tar.NewReader(r)
	for {
		hdr, err := tr.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		name := filepath.Join(root, filepath.FromSlash(hdr.Name))
		if !strings.HasPrefix(name, filepath.Clean(root)+string(filepath.Separator)) {
			return fmt.Errorf("archive entry %q leaves the export directory", hdr.Name)
		}
		switch hdr.Typeflag {
		case tar.TypeDir:
			err = os.MkdirAll(name, 0o755)
		case tar.TypeReg:
			err = writeFile(name, tr, hdr.FileInfo().Mode().Perm())
		}
		if err != nil {
			return err
		}
	}
}

func writeFile(name string, r io.Reader, perm os.FileMode) error {
	if err := os.MkdirAll(filepath.Dir(name), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// build compiles pkg's test binary in the module rooted at root into bin.
func build(name, root, pkg, bin string) (*side, error) {
	if _, err := output(root, "go", "test", "-c", "-o", bin, pkg); err != nil {
		return nil, fmt.Errorf("build %s: %w", name, err)
	}
	pkgDir, err := output(root, "go", "list", "-f", "{{.Dir}}", pkg)
	if err != nil {
		return nil, fmt.Errorf("locate %s in %s: %w", pkg, name, err)
	}
	return &side{name: name, bin: bin, pkgDir: strings.TrimSpace(pkgDir), runs: map[metric][]float64{}}, nil
}

// output runs a command in dir and returns its standard output; a failure
// carries its standard error.
func output(dir, name string, args ...string) (string, error) {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("%s %s: %w\n%s%s", name, strings.Join(args, " "), err, stdout.String(), stderr.String())
	}
	return stdout.String(), nil
}

// parseBench adds every value of every benchmark result line in out to
// runs: "BenchmarkX-2  300  1234 ns/op  16 B/op  0 allocs/op  57.1 tick-ns/op".
func parseBench(out string, runs map[metric][]float64) {
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.ParseInt(f[1], 10, 64); err != nil {
			continue
		}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				break
			}
			m := metric{f[0], f[i+1]}
			runs[m] = append(runs[m], v)
		}
	}
}

// report prints one line per metric both sides read in every run.
func report(w io.Writer, par, chg map[metric][]float64, n int) error {
	var ms []metric
	for m, v := range par {
		if len(v) == n && len(chg[m]) == n {
			ms = append(ms, m)
		}
	}
	if len(ms) == 0 {
		return errors.New("no benchmark metric was read in every run of both sides")
	}
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].bench != ms[j].bench {
			return ms[i].bench < ms[j].bench
		}
		return ms[i].unit < ms[j].unit
	})
	fmt.Fprintf(w, "%-40s %-12s %30s %30s %7s %8s %8s  %s\n",
		"benchmark", "unit", "parent median [q1 q3]", "change median [q1 q3]", "Δ", "lower", "p", "verdict")
	for _, m := range ms {
		p, c := par[m], chg[m]
		pq, cq := quartiles(p), quartiles(c)
		lower, higher := 0, 0
		for i := range p {
			switch {
			case c[i] < p[i]:
				lower++
			case c[i] > p[i]:
				higher++
			}
		}
		pv := signTest(lower, higher)
		delta := "—"
		if pq[1] != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(cq[1]-pq[1])/pq[1])
		}
		fmt.Fprintf(w, "%-40s %-12s %30s %30s %7s %8s %8.3f  %s\n", m.bench, m.unit,
			fmt.Sprintf("%.4g [%.4g %.4g]", pq[1], pq[0], pq[2]),
			fmt.Sprintf("%.4g [%.4g %.4g]", cq[1], cq[0], cq[2]),
			delta, fmt.Sprintf("%d/%d", lower, n), pv, verdict(lower, higher, pv))
	}
	return nil
}

// quartiles returns the first quartile, the median and the third quartile
// of v, interpolating linearly between order statistics.
func quartiles(v []float64) [3]float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		h := q * float64(len(s)-1)
		lo := int(math.Floor(h))
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
	}
	return [3]float64{at(0.25), at(0.5), at(0.75)}
}

// signTest is the two-sided sign test's p-value for lower pairs against
// higher ones, ties left out: the chance of a split at least this uneven
// if each differing pair were a fair coin.
func signTest(lower, higher int) float64 {
	n, k := lower+higher, min(lower, higher)
	if n == 0 {
		return 1
	}
	tail, term := 0.0, math.Pow(0.5, float64(n)) // C(n, 0) / 2^n
	for i := 0; i <= k; i++ {
		tail += term
		term *= float64(n-i) / float64(i+1)
	}
	return min(1, 2*tail)
}

// verdict names the sign test's reading at the 5 % level.
func verdict(lower, higher int, p float64) string {
	switch {
	case p >= 0.05:
		return "no difference"
	case lower > higher:
		return "change lower"
	default:
		return "change higher"
	}
}
