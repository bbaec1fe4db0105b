// Command dmplint runs the repo-invariant static-analysis suite over the
// packages its arguments name. It exits non-zero when any analyzer
// reports a finding, making it suitable as a Makefile/CI gate:
//
//	go run ./cmd/dmplint ./...
//
// The arguments are go package patterns (default ./...), resolved by the
// go command in the working directory's module; the packages they name
// are type-checked together with their module dependencies, and only the
// named ones are analyzed. dmplint has no flags.
//
// Findings are suppressed with an inline `// nolint:<analyzer> <reason>`
// on the offending line, the line above it, or the enclosing function's
// doc comment; see DESIGN.md "Enforced invariants".
package main

import (
	"fmt"
	"os"

	"dmpstream/internal/lint"
)

func main() { os.Exit(run()) }

func run() int {
	patterns := os.Args[1:]
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmplint:", err)
		return 2
	}
	if len(pkgs) == 0 {
		fmt.Fprintf(os.Stderr, "dmplint: no packages match %v\n", patterns)
		return 2
	}
	findings := lint.Run(pkgs, lint.DefaultAnalyzers())
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "dmplint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}
