package lint

import "testing"

func TestLockedCallUnheldRoot(t *testing.T) {
	res := analyzeFixture(t, map[string]string{
		"a/x.go": `package a

type E struct{}

func (e *E) helperLocked() {}

func (e *E) Do() {
	e.helperLocked()
}
`,
	})
	expect(t, res, RuleLockedCall, "x.go:8")
}

func TestLockedCallHeldByAcquire(t *testing.T) {
	res := analyzeFixture(t, map[string]string{
		"a/x.go": `package a

import "sync"

type E struct {
	mu sync.Mutex
}

func (e *E) helperLocked() {}

func (e *E) Do() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.helperLocked()
}
`,
	})
	expect(t, res, RuleLockedCall)
}

// TestLockedCallInterprocedural: mid is fine while every path to it
// locks; adding one unlocked path makes its *Locked call a finding.
func TestLockedCallInterprocedural(t *testing.T) {
	clean := map[string]string{
		"a/x.go": `package a

import "sync"

type E struct {
	mu sync.Mutex
}

func (e *E) helperLocked() {}

func (e *E) mid() {
	e.helperLocked()
}

func (e *E) Do() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.mid()
}
`,
	}
	res := analyzeFixture(t, clean)
	expect(t, res, RuleLockedCall)

	dirty := map[string]string{"a/x.go": clean["a/x.go"] + `
func (e *E) Bypass() {
	e.mid()
}
`}
	res = analyzeFixture(t, dirty)
	expect(t, res, RuleLockedCall, "x.go:12")
}

// TestLockedCallClosureInheritsThroughLockedHelper: the prevailing repo
// idiom — a closure built under the lock and handed to a *Locked
// with-helper — is clean; the same closure reachable from an unlocked
// exported function is not.
func TestLockedCallClosureInheritsThroughLockedHelper(t *testing.T) {
	res := analyzeFixture(t, map[string]string{
		"a/x.go": `package a

import "sync"

type E struct {
	mu sync.Mutex
}

func (e *E) flushLocked() {}

func (e *E) withRetryLocked(fn func()) {
	fn()
}

func (e *E) Do() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.withRetryLocked(func() {
		e.flushLocked()
	})
}
`,
	})
	expect(t, res, RuleLockedCall)

	res = analyzeFixture(t, map[string]string{
		"a/x.go": `package a

type E struct{}

func (e *E) flushLocked() {}

func (e *E) Do() {
	fn := func() {
		e.flushLocked()
	}
	fn()
}
`,
	})
	expect(t, res, RuleLockedCall, "x.go:9")
}

// TestLockedCallMethodValueReference: taking a *Locked method as a
// value from an unheld context is flagged (the value may be invoked
// anywhere).
func TestLockedCallMethodValueReference(t *testing.T) {
	res := analyzeFixture(t, map[string]string{
		"a/x.go": `package a

type E struct{}

func (e *E) flushLocked() {}

func (e *E) Handler() func() {
	return e.flushLocked
}
`,
	})
	expect(t, res, RuleLockedCall, "x.go:8")
}

func TestLockedCallSuppression(t *testing.T) {
	res := analyzeFixture(t, map[string]string{
		"a/x.go": `package a

type E struct{}

func (e *E) helperLocked() {}

func (e *E) Do() {
	//lint:ignore locked-callgraph fixture: lock handed off by caller contract
	e.helperLocked()
}
`,
	})
	expect(t, res, RuleLockedCall)
	if res.Suppressed != 1 {
		t.Fatalf("Suppressed = %d, want 1", res.Suppressed)
	}
}

// TestLockedCallHeldParameter: the entry idiom (DESIGN.md §8.2). A
// literal passed to a parameter whose name ends in "Locked" runs with the
// lock held, so its *Locked calls are clean; passed to an ordinary
// parameter it is only as held as its encloser; and a *Locked call in the
// exported method's own body, outside the literal, is a finding.
func TestLockedCallHeldParameter(t *testing.T) {
	src := func(param, extra string) map[string]string {
		return map[string]string{"a/x.go": `package a

import "sync"

type E struct {
	mu sync.Mutex
}

func (e *E) helperLocked() {}

func (e *E) ecall(` + param + ` func() error) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return ` + param + `()
}

func (e *E) Do() error {` + extra + `
	return e.ecall(func() error {
		e.helperLocked()
		return nil
	})
}
`}
	}
	expect(t, analyzeFixture(t, src("bodyLocked", "")), RuleLockedCall)
	expect(t, analyzeFixture(t, src("body", "")), RuleLockedCall, "x.go:19")
	expect(t, analyzeFixture(t, src("bodyLocked", "\n\te.helperLocked()")), RuleLockedCall, "x.go:18")
}
