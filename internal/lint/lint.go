// Package lint is nexus-lint: a repo-specific static analyzer that
// machine-checks the NEXUS security invariants the Go compiler cannot see
// (DSN'19 §IV, §VI). It is built exclusively on the standard library's
// go/parser, go/ast, and go/types; the module stays dependency-free.
//
// It has one rule, unchecked-crypto-error: the error from rand.Read,
// AEAD Seal/Open, sealing, or signature verification is never
// discarded.
//
// The locking contract (fields commented "// guarded by mu", helpers
// named *Locked) is not a rule here: the race detector checks it on
// real executions, in `make race`, `make chaos` and the concurrent
// tests beside each package that holds a lock (DESIGN.md §8.1).
//
// Whether key material crosses the ecall surface, or reaches an error, a
// span tag or the store, is not a rule here: internal/enclave/
// keyleak_test.go checks the key values themselves against every byte
// that leaves the enclave (DESIGN.md §6).
// Nor is keeping math/rand out of the crypto packages:
// cryptorand_test.go at the module root checks their imports. Nor is
// nonce freshness: the same test's Property K5 checks that no (key,
// nonce) pair of any object put to the store seals two different
// things.
//
// A finding can be suppressed with a directive on the same or the
// preceding line:
//
//	//lint:ignore RULE reason
//
// Suppressed findings are counted and reported, never silently dropped.
package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// Finding is one rule violation.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
}

// String formats the finding in the canonical file:line: [RULE] form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Msg)
}

// Checker is a single named rule.
type Checker struct {
	Rule string
	Doc  string
	// Run reports the rule's findings over the whole module.
	Run func(m *Module) []Finding
}

// Checkers returns every rule, in reporting order.
func Checkers() []Checker {
	return []Checker{
		{Rule: RuleCryptoErr, Doc: "crypto errors must be checked", Run: checkCryptoErr},
	}
}

// Rule names.
const (
	RuleCryptoErr = "unchecked-crypto-error"
	// RuleDirective reports malformed or stale //lint:ignore directives.
	RuleDirective = "lint-directive"
)

// Result is the outcome of linting a module.
type Result struct {
	// Findings are the surviving (unsuppressed) findings, sorted by
	// position.
	Findings []Finding
	// Suppressed counts findings silenced by //lint:ignore directives.
	Suppressed int
}

// Run loads the module rooted at root and applies every rule.
func Run(root string) (*Result, error) {
	mod, err := LoadModule(root)
	if err != nil {
		return nil, err
	}
	return Analyze(mod), nil
}

// Analyze applies every rule to an already loaded module.
func Analyze(mod *Module) *Result {
	dirs, findings := collectSuppressions(mod)
	for _, c := range Checkers() {
		findings = append(findings, c.Run(mod)...)
	}

	// Index directives by the (file, line, rule) keys they silence, so
	// suppression marks them used and survivors are audited as stale.
	sup := make(map[supKey][]*directive)
	for _, d := range dirs {
		for _, k := range d.keys() {
			sup[k] = append(sup[k], d)
		}
	}

	res := &Result{}
	for _, f := range findings {
		if f.Rule != RuleDirective {
			if ds := sup[supKey{f.Pos.Filename, f.Pos.Line, f.Rule}]; len(ds) > 0 {
				for _, d := range ds {
					d.used = true
				}
				res.Suppressed++
				continue
			}
		}
		res.Findings = append(res.Findings, f)
	}
	// Staleness audit: a directive that silenced nothing is itself a
	// finding — dead suppressions hide future regressions.
	for _, d := range dirs {
		if !d.used {
			res.Findings = append(res.Findings, Finding{
				Pos:  d.pos,
				Rule: RuleDirective,
				Msg:  "stale //lint:ignore " + d.rule + ": no finding of that rule here any more; remove the directive",
			})
		}
	}
	sort.Slice(res.Findings, func(i, j int) bool {
		a, b := res.Findings[i], res.Findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Rule < b.Rule
	})
	return res
}
