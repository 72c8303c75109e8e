// Package lint is nexus-lint: a repo-specific static analyzer that
// machine-checks the NEXUS security invariants the Go compiler cannot see
// (DSN'19 §IV, §VI). It is built exclusively on the standard library's
// go/parser, go/ast, and go/types; the module stays dependency-free.
//
// Rules:
//
//   - no-math-rand: math/rand never feeds key material. Forbidden outside
//     _test.go files and the synthetic-workload packages
//     (internal/workload, internal/bench); the crypto-bearing packages
//     must use crypto/rand exclusively.
//   - enclave-boundary: raw key material (rootkey, sealing keys, wrapping
//     keys) never crosses the ecall surface: no exported identifier or
//     exported signature of internal/enclave or internal/sgx may carry
//     it, and no outside package may reference such an identifier.
//     Sealed/wrapped forms are allowed (that is the point of sealing).
//   - nonce-hygiene: every AEAD Seal/Open nonce is a constant-free,
//     non-package-level value freshly derived from crypto/rand or a
//     counter helper (§VI-A's fresh key+IV per update).
//   - unchecked-crypto-error: the error from rand.Read, AEAD Seal/Open,
//     sealing, or signature verification is never discarded.
//   - lock-discipline: a Lock/RLock on a sync.Mutex/RWMutex has a
//     matching Unlock in the same function (deferred or on a return
//     path, conservatively approximated), and fields annotated
//     "// guarded by mu" are only touched by functions that lock mu (or
//     are *Locked helpers that document holding it).
//   - buffer-escape: a chunk buffer leased from the internal/parallel
//     arena is never used after Release and never escapes its lease via
//     a return, struct field, or package-level variable (DESIGN.md §14).
//   - locked-callgraph: a *Locked function is unreachable from any
//     module entry point that does not hold a lock.
//
// Whether key material reaches an error, a span tag or the store is not
// a rule here: internal/enclave/keyleak_test.go checks the key values
// themselves against every byte that leaves the enclave (DESIGN.md §6).
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

// Checkers returns every rule, in reporting order. The last is
// interprocedural: it runs over the module's call graph (callgraph.go).
func Checkers() []Checker {
	return []Checker{
		{Rule: RuleMathRand, Doc: "math/rand forbidden outside tests and workload generators", Run: perPackage(checkMathRand)},
		{Rule: RuleBoundary, Doc: "raw key material must not cross the enclave boundary", Run: perPackage(checkBoundary)},
		{Rule: RuleNonce, Doc: "AEAD nonces must be fresh (crypto/rand or counter helper)", Run: perPackage(checkNonce)},
		{Rule: RuleCryptoErr, Doc: "crypto errors must be checked", Run: perPackage(checkCryptoErr)},
		{Rule: RuleLocks, Doc: "mutex lock/unlock pairing and guarded-by annotations", Run: perPackage(checkLocks)},
		{Rule: RuleBufferEscape, Doc: "pooled arena buffers must not be used after Release or outlive their lease", Run: perPackage(checkBufferEscape)},
		{Rule: RuleLockedCall, Doc: "*Locked functions only reachable from contexts that hold a lock (call-graph check)", Run: checkLockedCall},
	}
}

// perPackage lifts a rule that looks at one package at a time to the
// whole module.
func perPackage(check func(m *Module, p *Package) []Finding) func(*Module) []Finding {
	return func(m *Module) []Finding {
		var out []Finding
		for _, p := range m.Packages {
			out = append(out, check(m, p)...)
		}
		return out
	}
}

// Rule names.
const (
	RuleMathRand  = "no-math-rand"
	RuleBoundary  = "enclave-boundary"
	RuleNonce     = "nonce-hygiene"
	RuleCryptoErr = "unchecked-crypto-error"
	RuleLocks     = "lock-discipline"
	// RuleBufferEscape guards the pooled-buffer ownership rules of
	// DESIGN.md §14: no use after Release, no escape past the lease.
	RuleBufferEscape = "buffer-escape"
	// RuleLockedCall is the interprocedural rule.
	RuleLockedCall = "locked-callgraph"
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
