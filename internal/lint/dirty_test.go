package lint

import "testing"

// dirtyFixtureMetadata is the minimal internal/metadata the
// dirty-before-flush rule recognizes (Dirnode/Filenode mutators from
// config.go's metadataMutators, plus a plain field for write tests).
const dirtyFixtureMetadata = `package metadata

type Dirnode struct {
	Count int
}

func (d *Dirnode) Insert(name string) {}

func (d *Dirnode) Remove(name string) {}
`

func TestDirtyMutatorWithoutBarrier(t *testing.T) {
	res := analyzeFixture(t, map[string]string{
		"internal/metadata/m.go": dirtyFixtureMetadata,
		"internal/enclave/x.go": `package enclave

import "fixture/internal/metadata"

type E struct{}

func (e *E) badInsert(d *metadata.Dirnode) {
	d.Insert("entry")
}
`,
	})
	expect(t, res, RuleDirtyFlush, "x.go:8")
}

func TestDirtyMutatorReachesBarrier(t *testing.T) {
	res := analyzeFixture(t, map[string]string{
		"internal/metadata/m.go": dirtyFixtureMetadata,
		"internal/enclave/x.go": `package enclave

import "fixture/internal/metadata"

type E struct{}

func (e *E) markDirnodeOp(d *metadata.Dirnode) {}

func (e *E) goodInsert(d *metadata.Dirnode) {
	d.Insert("entry")
	e.markDirnodeOp(d)
}
`,
	})
	expect(t, res, RuleDirtyFlush)
}

// TestDirtyMutationInsideBarrierMachinery: the flush path itself
// mutates nodes (re-encoding, applying staged ops); functions that are
// part of the barrier machinery are exempt by name, and so are helpers
// reachable only from them.
func TestDirtyMutationInsideBarrierMachinery(t *testing.T) {
	res := analyzeFixture(t, map[string]string{
		"internal/metadata/m.go": dirtyFixtureMetadata,
		"internal/enclave/x.go": `package enclave

import "fixture/internal/metadata"

type E struct{}

func (e *E) flushDirnode(d *metadata.Dirnode) {
	d.Insert("applied")
	e.applyStaged(d)
}

func (e *E) applyStaged(d *metadata.Dirnode) {
	d.Remove("staged")
}
`,
	})
	expect(t, res, RuleDirtyFlush)
}

// TestDirtyInstallIntoDirtySetIsAMark: assigning the mutated node to a
// field of the dirty set's node is the hand-off the mark* functions
// make, so a pure helper whose every caller does that needs no barrier
// of its own — and one with a caller that does not still does.
func TestDirtyInstallIntoDirtySetIsAMark(t *testing.T) {
	const fixture = `package enclave

import "fixture/internal/metadata"

type E struct{}

type dirtyNode struct {
	dir  *metadata.Dirnode
	base uint64
}

func (e *E) replay(d *metadata.Dirnode) {
	d.Insert("replayed")
}

func (e *E) rebase(n *dirtyNode, fresh *metadata.Dirnode) {
	e.replay(fresh)
	n.dir, n.base = fresh, 7
}
`
	res := analyzeFixture(t, map[string]string{
		"internal/metadata/m.go": dirtyFixtureMetadata,
		"internal/enclave/x.go":  fixture,
	})
	expect(t, res, RuleDirtyFlush)

	res = analyzeFixture(t, map[string]string{
		"internal/metadata/m.go": dirtyFixtureMetadata,
		"internal/enclave/x.go": fixture + `
func (e *E) peek(n *dirtyNode, fresh *metadata.Dirnode) {
	e.replay(fresh)
	n.base = 7
}
`,
	})
	expect(t, res, RuleDirtyFlush, "x.go:13")
}

func TestDirtyFieldWriteWithoutBarrier(t *testing.T) {
	res := analyzeFixture(t, map[string]string{
		"internal/metadata/m.go": dirtyFixtureMetadata,
		"internal/enclave/x.go": `package enclave

import "fixture/internal/metadata"

type E struct{}

func (e *E) bumpCount(d *metadata.Dirnode) {
	d.Count++
}
`,
	})
	expect(t, res, RuleDirtyFlush, "x.go:8")
}

// TestDirtyRuleScopedToEnclave: the same mutation outside
// internal/enclave is not this rule's business.
func TestDirtyRuleScopedToEnclave(t *testing.T) {
	res := analyzeFixture(t, map[string]string{
		"internal/metadata/m.go": dirtyFixtureMetadata,
		"internal/tools/x.go": `package tools

import "fixture/internal/metadata"

func Rebuild(d *metadata.Dirnode) {
	d.Insert("rebuilt")
}
`,
	})
	expect(t, res, RuleDirtyFlush)
}
