// Command dmplint runs the repo-invariant static-analysis suite over the
// module containing the working directory. It exits non-zero when any
// analyzer reports a finding, making it suitable as a Makefile/CI gate:
//
//	go run ./cmd/dmplint ./...
//
// Patterns select which packages are analyzed (go-tool style: a package
// path relative to the module root, or a prefix ending in /... for a
// subtree; default ./...). The full module is always parsed so
// cross-package inference and the whole-program concurrency pass work
// regardless of the pattern.
//
// Output and gating modes:
//
//	-json                 findings as a stable JSON schema (analyzer, pos,
//	                      severity, message, suppressed) — suppressed
//	                      findings are included and marked
//	-baseline file        fail only on findings not recorded in file
//	                      (adopt-then-burn-down)
//	-update-baseline      rewrite the -baseline file from current findings
//	-lockgraph            dump the whole-program lock-acquisition graph as
//	                      Graphviz dot and exit (cycle edges in red)
//	-bufgraph             dump the buffer-ownership borrow graph as
//	                      Graphviz dot and exit (sinks in blue)
//	-hotpaths             dump the `// hotpath` annotated roots and their
//	                      transitive callee closure and exit (with -json,
//	                      as the dmpstream/hotpaths/v1 document)
//	-copysize n           copycheck large-struct threshold in bytes
//	                      (default 128)
//	-enable a,b / -disable a,b
//	                      restrict which analyzers run
//
// Findings are suppressed with an inline `// nolint:<analyzer> <reason>`
// on the offending line, the line above it, or the enclosing function's
// doc comment; see DESIGN.md "Enforced invariants".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"dmpstream/internal/lint"
)

func main() { os.Exit(run()) }

func run() int {
	list := flag.Bool("list", false, "list analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as JSON (stable schema, includes suppressed findings)")
	baselinePath := flag.String("baseline", "", "baseline `file`: fail only on findings not recorded in it")
	updateBaseline := flag.Bool("update-baseline", false, "rewrite the -baseline file from the current findings and exit")
	lockgraph := flag.Bool("lockgraph", false, "emit the whole-program lock-acquisition graph as Graphviz dot and exit")
	bufgraph := flag.Bool("bufgraph", false, "emit the buffer-ownership borrow graph as Graphviz dot and exit")
	hotpaths := flag.Bool("hotpaths", false, "dump the hotpath roots and transitive closure and exit (honors -json)")
	copysize := flag.Int("copysize", 0, "copycheck large-struct threshold in `bytes` (0 = default 128)")
	enable := flag.String("enable", "", "comma-separated analyzers to run (default: all)")
	disable := flag.String("disable", "", "comma-separated analyzers to skip")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: dmplint [flags] [packages]\n\npackages default to ./...\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	root, err := moduleRoot()
	if err != nil {
		return fatal(err)
	}
	pkgs, module, err := lint.Load(root)
	if err != nil {
		return fatal(err)
	}
	analyzers := lint.DefaultAnalyzers(module)
	if *copysize > 0 {
		for i, a := range analyzers {
			if a.Name == "copycheck" {
				analyzers[i] = lint.Copycheck(*copysize)
			}
		}
	}
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	analyzers, err = selectAnalyzers(analyzers, *enable, *disable)
	if err != nil {
		return fatal(err)
	}

	idx := lint.BuildIndex(module, pkgs)
	if *lockgraph {
		fmt.Print(lint.LockGraphDot(idx))
		return 0
	}
	if *bufgraph {
		fmt.Print(lint.BufGraphDot(idx))
		return 0
	}
	if *hotpaths {
		d := lint.Hotpaths(idx)
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(d); err != nil {
				return fatal(err)
			}
		} else {
			fmt.Print(d.Text(module))
		}
		return 0
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	selected := selectPackages(pkgs, module, patterns)
	if len(selected) == 0 {
		return fatal(fmt.Errorf("no packages match %v", patterns))
	}

	all := lint.RunAll(selected, idx, analyzers)
	active := unsuppressed(all)

	if *updateBaseline {
		if *baselinePath == "" {
			return fatal(fmt.Errorf("-update-baseline requires -baseline file"))
		}
		if err := lint.WriteBaselineFile(*baselinePath, active); err != nil {
			return fatal(err)
		}
		fmt.Fprintf(os.Stderr, "dmplint: baseline %s records %d finding(s)\n", *baselinePath, len(active))
		return 0
	}
	if *baselinePath != "" {
		base, err := lint.LoadBaselineFile(*baselinePath)
		if err != nil {
			return fatal(err)
		}
		waived := len(active)
		active = lint.FilterBaseline(active, base)
		waived -= len(active)
		if waived > 0 {
			fmt.Fprintf(os.Stderr, "dmplint: %d finding(s) waived by baseline %s\n", waived, *baselinePath)
		}
	}

	if *jsonOut {
		// The JSON stream carries what gates (post-baseline) plus the
		// inline-suppressed findings, marked, for audits of the waivers.
		report := append([]lint.Finding{}, active...)
		for _, f := range all {
			if f.Suppressed {
				report = append(report, f)
			}
		}
		if err := lint.WriteJSON(os.Stdout, report); err != nil {
			return fatal(err)
		}
	} else {
		for _, f := range active {
			fmt.Println(f)
		}
	}
	if len(active) > 0 {
		fmt.Fprintf(os.Stderr, "dmplint: %d finding(s)\n", len(active))
		return 1
	}
	return 0
}

func unsuppressed(findings []lint.Finding) []lint.Finding {
	var out []lint.Finding
	for _, f := range findings {
		if !f.Suppressed {
			out = append(out, f)
		}
	}
	return out
}

// selectAnalyzers applies -enable / -disable.
func selectAnalyzers(all []*lint.Analyzer, enable, disable string) ([]*lint.Analyzer, error) {
	known := map[string]bool{}
	for _, a := range all {
		known[a.Name] = true
	}
	parse := func(csv string) (map[string]bool, error) {
		if csv == "" {
			return nil, nil
		}
		set := map[string]bool{}
		for _, name := range strings.Split(csv, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if !known[name] {
				return nil, fmt.Errorf("unknown analyzer %q (see -list)", name)
			}
			set[name] = true
		}
		return set, nil
	}
	on, err := parse(enable)
	if err != nil {
		return nil, err
	}
	off, err := parse(disable)
	if err != nil {
		return nil, err
	}
	var out []*lint.Analyzer
	for _, a := range all {
		if on != nil && !on[a.Name] {
			continue
		}
		if off[a.Name] {
			continue
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no analyzers left after -enable/-disable")
	}
	return out, nil
}

// moduleRoot walks up from the working directory to the enclosing go.mod.
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
			return "", fmt.Errorf("dmplint: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// selectPackages filters loaded packages by go-tool style patterns
// resolved against the module root.
func selectPackages(pkgs []*lint.Package, module string, patterns []string) []*lint.Package {
	match := func(importPath string) bool {
		rel := strings.TrimPrefix(strings.TrimPrefix(importPath, module), "/")
		for _, pat := range patterns {
			pat = strings.TrimPrefix(pat, "./")
			if sub, ok := strings.CutSuffix(pat, "..."); ok {
				sub = strings.TrimSuffix(sub, "/")
				if sub == "" || rel == sub || strings.HasPrefix(rel, sub+"/") {
					return true
				}
				continue
			}
			if rel == strings.TrimSuffix(pat, "/") || (pat == "." && rel == "") {
				return true
			}
		}
		return false
	}
	var out []*lint.Package
	for _, p := range pkgs {
		if match(p.ImportPath) {
			out = append(out, p)
		}
	}
	return out
}

// fatal reports a usage/IO error and yields the exit code for run to
// return.
func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "dmplint:", err)
	return 2
}
