package lint

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// loadFixtureModule is analyzeFixture's sibling for tests that need the
// Module itself (call graph, summaries) rather than lint findings.
func loadFixtureModule(t *testing.T, files map[string]string) *Module {
	t.Helper()
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module fixture\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m, err := LoadModule(root)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	return m
}

var callGraphFixture = map[string]string{
	"a/a.go": `package a

func helper() {}

func Entry() {
	helper()
	f := func() {
		helper()
	}
	f()
	go helper()
}
`,
	"b/b.go": `package b

import "fixture/a"

type T struct{}

func (t *T) Run() {
	a.Entry()
}

func Use(t *T) {
	g := t.Run
	g()
}
`,
}

// TestCallGraphGolden pins the graph construction: direct calls,
// literal definition refs, calls from inside literals, cross-package
// calls, and method-value references — each exactly once (deduped).
func TestCallGraphGolden(t *testing.T) {
	m := loadFixtureModule(t, callGraphFixture)
	got := m.callGraph().DumpEdges()
	want := []string{
		"a.Entry -> a.Entry$1 [ref]",
		"a.Entry -> a.helper",
		"a.Entry$1 -> a.helper",
		"b.(T).Run -> a.Entry",
		"b.Use -> b.(T).Run [ref]",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("DumpEdges:\n got %q\nwant %q", got, want)
	}
}
