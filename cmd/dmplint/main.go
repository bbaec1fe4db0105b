// Command dmplint runs the repo-invariant static-analysis suite over the
// module containing the working directory. It exits non-zero when any
// analyzer reports a finding, making it suitable as a Makefile/CI gate:
//
//	go run ./cmd/dmplint ./...
//
// Its arguments are patterns selecting which packages are analyzed
// (go-tool style: a package path relative to the module root, or a prefix
// ending in /... for a subtree; default ./...). The full module is always
// parsed so cross-package inference works regardless of the pattern.
// dmplint has no flags.
//
// Findings are suppressed with an inline `// nolint:<analyzer> <reason>`
// on the offending line, the line above it, or the enclosing function's
// doc comment; see DESIGN.md "Enforced invariants".
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"dmpstream/internal/lint"
)

func main() { os.Exit(run()) }

func run() int {
	root, err := moduleRoot()
	if err != nil {
		return fatal(err)
	}
	pkgs, module, err := lint.Load(root)
	if err != nil {
		return fatal(err)
	}
	idx := lint.BuildIndex(module, pkgs)

	patterns := os.Args[1:]
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	selected := selectPackages(pkgs, module, patterns)
	if len(selected) == 0 {
		return fatal(fmt.Errorf("no packages match %v", patterns))
	}
	findings := lint.Run(selected, idx, lint.DefaultAnalyzers(module))
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "dmplint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
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
