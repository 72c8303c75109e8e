//go:build !race

package freshtree

import (
	"testing"

	"nexus/internal/merkle"
)

// TestRootReadAtResidentTipAllocBudget pins what a read of the root costs
// the proof service when its tree is already at the root's epoch — every
// commit's re-read of its own last root: the frame's header is checked
// and nothing is allocated, however long the delta it carries.
func TestRootReadAtResidentTipAllocBudget(t *testing.T) {
	s, store := newTestStore(t)
	root := merkle.EmptyRoot()
	for epoch := uint64(0); epoch < 4; epoch++ {
		batch := make([]merkle.LeafUpdate, 16)
		for i := range batch {
			batch[i] = merkle.LeafUpdate{ID: fsTestUUID(byte(16*epoch) + byte(i) + 1), Version: epoch + 1}
		}
		root = commitBatch(t, s, epoch, root, batch)
	}
	framed, _, err := store.GetVersioned(RootObjectName)
	if err != nil {
		t.Fatal(err)
	}
	if _, tr, ok := splitDecoded(framed); !ok || tr.tip != s.at.tip || len(tr.delta) == 0 {
		t.Fatalf("root frame: framed %v, tip %d (resident %d), %d entries", ok, tr.tip, s.at.tip, len(tr.delta))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.followLocked(framed, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a root read at the resident tip made %.0f allocations, want 0", allocs)
	}
}
