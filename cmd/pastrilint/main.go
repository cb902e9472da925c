// Command pastrilint runs the PaSTRI-specific static-analysis suite
// (internal/analysis) over module packages and exits non-zero on
// findings, so it can gate the verify chain next to go vet.
//
// Usage:
//
//	pastrilint ./...            # whole module (the default)
//	pastrilint ./internal/bitio # one package
//	pastrilint -list            # describe the suite
//
// Findings print as file:line:col: [analyzer] message with paths
// relative to the module root. A finding is silenced by fixing it, or
// by annotating the line (or the line above) with //lint:<analyzer>-ok
// plus the reason the invariant holds; see the "Static analysis &
// invariants" section of README.md.
//
// Exit codes: 0 clean, 1 findings, 2 usage or load errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pastrilint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	findings, err := Lint(".", patterns)
	if err != nil {
		fmt.Fprintln(stderr, "pastrilint:", err)
		return 2
	}
	for _, f := range findings {
		fmt.Fprintln(stdout, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stdout, "pastrilint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// Lint loads the patterns relative to the root of dir's module and
// returns the whole suite's findings.
func Lint(dir string, patterns []string) ([]analysis.Finding, error) {
	loader, err := analysis.NewLoader(dir)
	if err != nil {
		return nil, err
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		return nil, err
	}
	return analysis.Run(pkgs, analysis.All()), nil
}
