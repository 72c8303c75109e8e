// Command nexus-lint checks the module against the NEXUS crypto-error
// invariant the Go compiler cannot see (DESIGN.md §8):
//
//	go run ./cmd/nexus-lint ./...
//
// It takes no flags (-h lists the rule). Analysis is always
// whole-module, so package arguments are accepted but ignored. It prints one
// "file:line: [RULE] message" line per finding plus a summary, and exits
// 1 on any finding, 2 if the module does not load. A finding is
// suppressed by "//lint:ignore RULE reason" on its line or the one
// before; a directive that silences nothing is itself a finding.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"nexus/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if err := parseFlags(args, stderr); err != nil {
		return 2
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "nexus-lint:", err)
		return 2
	}
	root := cwd // walk up to the nearest go.mod
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		if filepath.Dir(root) == root {
			fmt.Fprintln(stderr, "nexus-lint: no go.mod found above", cwd)
			return 2
		}
		root = filepath.Dir(root)
	}
	res, err := lint.Run(root)
	if err != nil {
		fmt.Fprintln(stderr, "nexus-lint:", err)
		return 2
	}
	for _, f := range res.Findings {
		if rel, err := filepath.Rel(cwd, f.Pos.Filename); err == nil {
			f.Pos.Filename = rel
		}
		fmt.Fprintln(stdout, f)
	}
	fmt.Fprintf(stderr, "nexus-lint: %d finding(s), %d suppressed\n", len(res.Findings), res.Suppressed)
	if len(res.Findings) > 0 {
		return 1
	}
	return 0
}

// parseFlags accepts package patterns only: nexus-lint has no flags, so
// any flag is an error, and -h prints the rule list.
func parseFlags(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("nexus-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: nexus-lint [packages]\n\nRules:\n")
		for _, c := range lint.Checkers() {
			fmt.Fprintf(stderr, "  %-22s %s\n", c.Rule, c.Doc)
		}
	}
	return fs.Parse(args)
}
