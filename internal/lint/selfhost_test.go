package lint

import (
	"os"
	"path/filepath"
	"testing"
)

// TestSelfHost is the acceptance gate: the repository lints clean under
// its own analyzer. Every rule runs over every package; anything not
// covered by a reasoned //lint:ignore fails this test — which is
// exactly the CI gate, run as a unit test so `go test ./...` catches a
// new violation before the workflow does.
func TestSelfHost(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Skipf("module root not found at %s: %v", root, err)
	}

	res, err := Run(root)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	for _, f := range res.Findings {
		t.Errorf("self-host violation: %s", f.String())
	}
}
