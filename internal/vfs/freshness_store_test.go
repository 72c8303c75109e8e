package vfs

import (
	"errors"
	"testing"

	"nexus/internal/backend"
	"nexus/internal/enclave"
	"nexus/internal/merkle"
	"nexus/internal/uuid"
)

func fsTestUUID(b byte) uuid.UUID {
	var id uuid.UUID
	id[0] = b
	id[15] = ^b
	return id
}

func newTestFreshnessStore(t *testing.T) (*FreshnessStore, enclave.ObjectStore) {
	t.Helper()
	inner := NewVersionedStore(backend.NewMemStore())
	fs, ok := NewFreshnessStore(inner).(interface {
		FreshnessProof(uuid.UUID, uint64) ([]byte, error)
		FreshnessUpdate(uint64, []merkle.LeafUpdate) ([][]byte, error)
	})
	if !ok {
		t.Fatal("NewFreshnessStore lost the proof surface")
	}
	// VersionedStore streams, so the wrapper is the stream variant;
	// reach the embedded FreshnessStore for white-box assertions.
	sfs, ok := fs.(*streamFreshnessStore)
	if !ok {
		t.Fatalf("wrapper over a streaming store is %T, want *streamFreshnessStore", fs)
	}
	return sfs.FreshnessStore, inner
}

// applyBatch pushes one update batch at the store's current epoch and
// folds the returned proofs the way the enclave does, returning the
// root every proof chain converges to.
func applyBatch(t *testing.T, s *FreshnessStore, epoch uint64, root [32]byte, batch []merkle.LeafUpdate) [32]byte {
	t.Helper()
	proofs, err := s.FreshnessUpdate(epoch, batch)
	if err != nil {
		t.Fatalf("FreshnessUpdate(%d): %v", epoch, err)
	}
	if len(proofs) != len(batch) {
		t.Fatalf("%d proofs for %d updates", len(proofs), len(batch))
	}
	for i, raw := range proofs {
		p, err := merkle.DecodeProof(raw)
		if err != nil {
			t.Fatalf("proof %d: %v", i, err)
		}
		if root, err = p.NewRoot(root, batch[i].ID, batch[i].Version); err != nil {
			t.Fatalf("folding proof %d: %v", i, err)
		}
	}
	return root
}

func TestFreshnessStoreProofAndUpdateRoundTrip(t *testing.T) {
	s, _ := newTestFreshnessStore(t)

	// Empty store: absence proof at epoch 0 against the empty root.
	raw, err := s.FreshnessProof(fsTestUUID(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := merkle.DecodeProof(raw)
	if err != nil {
		t.Fatal(err)
	}
	if _, present, err := p.Verify(merkle.EmptyRoot(), fsTestUUID(1)); err != nil || present {
		t.Fatalf("empty-store proof: present=%v err=%v", present, err)
	}

	root := merkle.EmptyRoot()
	root = applyBatch(t, s, 0, root, []merkle.LeafUpdate{
		{ID: fsTestUUID(1), Version: 3},
		{ID: fsTestUUID(2), Version: 1},
	})
	root = applyBatch(t, s, 1, root, []merkle.LeafUpdate{
		{ID: fsTestUUID(2), Version: 2},
		{ID: fsTestUUID(3), Version: 9},
	})

	// Proofs at the current epoch verify against the folded root.
	for id, want := range map[byte]uint64{1: 3, 2: 2, 3: 9} {
		raw, err := s.FreshnessProof(fsTestUUID(id), 2)
		if err != nil {
			t.Fatal(err)
		}
		p, err := merkle.DecodeProof(raw)
		if err != nil {
			t.Fatal(err)
		}
		v, present, err := p.Verify(root, fsTestUUID(id))
		if err != nil || !present || v != want {
			t.Fatalf("leaf %d: v=%d present=%v err=%v, want v=%d", id, v, present, err, want)
		}
	}
}

func TestFreshnessStoreServesPreviousEpoch(t *testing.T) {
	s, _ := newTestFreshnessStore(t)
	root0 := merkle.EmptyRoot()
	root1 := applyBatch(t, s, 0, root0, []merkle.LeafUpdate{{ID: fsTestUUID(1), Version: 1}})
	root2 := applyBatch(t, s, 1, root1, []merkle.LeafUpdate{
		{ID: fsTestUUID(1), Version: 2},
		{ID: fsTestUUID(4), Version: 1},
	})

	// The epoch-1 view (an enclave whose sealed root put crashed) is
	// reconstructed from the undo log.
	raw, err := s.FreshnessProof(fsTestUUID(1), 1)
	if err != nil {
		t.Fatalf("previous-epoch proof: %v", err)
	}
	p, err := merkle.DecodeProof(raw)
	if err != nil {
		t.Fatal(err)
	}
	if v, present, err := p.Verify(root1, fsTestUUID(1)); err != nil || !present || v != 1 {
		t.Fatalf("epoch-1 leaf: v=%d present=%v err=%v", v, present, err)
	}
	// And the current epoch still verifies against the newest root.
	raw, err = s.FreshnessProof(fsTestUUID(4), 2)
	if err != nil {
		t.Fatal(err)
	}
	if p, err = merkle.DecodeProof(raw); err != nil {
		t.Fatal(err)
	}
	if v, present, err := p.Verify(root2, fsTestUUID(4)); err != nil || !present || v != 1 {
		t.Fatalf("epoch-2 leaf: v=%d present=%v err=%v", v, present, err)
	}

	// Two epochs back is genuinely gone.
	if _, err := s.FreshnessProof(fsTestUUID(1), 0); !errors.Is(err, ErrEpochUnavailable) {
		t.Fatalf("epoch-0 proof = %v, want ErrEpochUnavailable", err)
	}
}

func TestFreshnessStoreRewindsInterruptedBatch(t *testing.T) {
	s, _ := newTestFreshnessStore(t)
	root0 := merkle.EmptyRoot()
	root1 := applyBatch(t, s, 0, root0, []merkle.LeafUpdate{{ID: fsTestUUID(1), Version: 1}})
	// The tree advanced to epoch 2 but the enclave's sealed root never
	// did (crash between the two writes): the retried batch arrives at
	// epoch 1 again, and must converge on the same root.
	rootA := applyBatch(t, s, 1, root1, []merkle.LeafUpdate{{ID: fsTestUUID(2), Version: 5}})
	rootB := applyBatch(t, s, 1, root1, []merkle.LeafUpdate{{ID: fsTestUUID(2), Version: 5}})
	if rootA != rootB {
		t.Fatal("retried batch did not converge on the same root")
	}
	raw, err := s.FreshnessProof(fsTestUUID(2), 2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := merkle.DecodeProof(raw)
	if err != nil {
		t.Fatal(err)
	}
	if v, present, err := p.Verify(rootA, fsTestUUID(2)); err != nil || !present || v != 5 {
		t.Fatalf("post-rewind leaf: v=%d present=%v err=%v", v, present, err)
	}
}

func TestFreshnessStoreSnapshotPersistsAcrossWrappers(t *testing.T) {
	s, inner := newTestFreshnessStore(t)
	root := applyBatch(t, s, 0, merkle.EmptyRoot(), []merkle.LeafUpdate{
		{ID: fsTestUUID(1), Version: 1},
		{ID: fsTestUUID(2), Version: 2},
	})

	// A fresh wrapper over the same inner store (server restart) must
	// reload the snapshot — including the undo log, so it still serves
	// the previous epoch.
	s2, ok := NewFreshnessStore(inner).(*streamFreshnessStore)
	if !ok {
		t.Fatal("fresh wrapper is not the stream variant")
	}
	raw, err := s2.FreshnessProof(fsTestUUID(2), 1)
	if err != nil {
		t.Fatalf("reloaded proof: %v", err)
	}
	p, err := merkle.DecodeProof(raw)
	if err != nil {
		t.Fatal(err)
	}
	if v, present, err := p.Verify(root, fsTestUUID(2)); err != nil || !present || v != 2 {
		t.Fatalf("reloaded leaf: v=%d present=%v err=%v", v, present, err)
	}
	prevRaw, err := s2.FreshnessProof(fsTestUUID(2), 0)
	if err != nil {
		t.Fatalf("reloaded previous-epoch proof: %v", err)
	}
	if p, err = merkle.DecodeProof(prevRaw); err != nil {
		t.Fatal(err)
	}
	if _, present, err := p.Verify(merkle.EmptyRoot(), fsTestUUID(2)); err != nil || present {
		t.Fatalf("reloaded epoch-0 absence: present=%v err=%v", present, err)
	}
}

func TestFreshnessStoreSnapshotDecodeRejectsGarbage(t *testing.T) {
	s, inner := newTestFreshnessStore(t)
	applyBatch(t, s, 0, merkle.EmptyRoot(), []merkle.LeafUpdate{{ID: fsTestUUID(1), Version: 1}})
	blob, _, err := inner.GetVersioned(FreshnessTreeObjectName)
	if err != nil {
		t.Fatal(err)
	}
	for name, mut := range map[string][]byte{
		"empty":      {},
		"bad format": append([]byte{99}, blob[1:]...),
		"truncated":  blob[:len(blob)-1],
	} {
		if _, err := inner.PutVersioned(FreshnessTreeObjectName, mut); err != nil {
			t.Fatal(err)
		}
		s2, ok := NewFreshnessStore(inner).(*streamFreshnessStore)
		if !ok {
			t.Fatal("fresh wrapper is not the stream variant")
		}
		if _, err := s2.FreshnessProof(fsTestUUID(1), 1); err == nil {
			t.Errorf("%s snapshot: proof served from garbage", name)
		}
	}
}

func TestFreshnessStoreUpdateAtWrongEpoch(t *testing.T) {
	s, _ := newTestFreshnessStore(t)
	applyBatch(t, s, 0, merkle.EmptyRoot(), []merkle.LeafUpdate{{ID: fsTestUUID(1), Version: 1}})
	if _, err := s.FreshnessUpdate(7, []merkle.LeafUpdate{{ID: fsTestUUID(2), Version: 1}}); !errors.Is(err, ErrEpochUnavailable) {
		t.Fatalf("future-epoch update = %v, want ErrEpochUnavailable", err)
	}
}

// lazyCacheStore models a caching client whose invalidations arrive
// late (the AFS whole-file cache): once it has fetched the tree
// snapshot it keeps serving that copy to plain gets, and only a Lock on
// the name revalidates it.
type lazyCacheStore struct {
	enclave.ObjectStore
	cached  []byte
	version uint64
	locks   int
}

func (c *lazyCacheStore) GetVersioned(name string) ([]byte, uint64, error) {
	if name != FreshnessTreeObjectName {
		return c.ObjectStore.GetVersioned(name)
	}
	if c.cached == nil {
		data, v, err := c.ObjectStore.GetVersioned(name)
		if err != nil {
			return nil, 0, err
		}
		c.cached, c.version = data, v
	}
	return append([]byte(nil), c.cached...), c.version, nil
}

func (c *lazyCacheStore) Lock(name string) (func(), error) {
	if name == FreshnessTreeObjectName {
		c.locks++
		c.cached = nil
	}
	return c.ObjectStore.Lock(name)
}

// A reader whose store still serves the previous tree snapshot to plain
// gets must not give up: under the root lock the enclave has seen the
// new epoch, so the snapshot exists and a revalidating fetch finds it.
func TestFreshnessStoreRevalidatesStaleSnapshot(t *testing.T) {
	writer, shared := newTestFreshnessStore(t)
	cache := &lazyCacheStore{ObjectStore: shared}
	reader := &FreshnessStore{inner: cache}

	id1, id2 := fsTestUUID(1), fsTestUUID(2)
	root := applyBatch(t, writer, 0, merkle.EmptyRoot(), []merkle.LeafUpdate{{ID: id1, Version: 1}})
	// The reader fetches the epoch-1 snapshot; its cache now holds it.
	if _, err := reader.FreshnessProof(id1, 1); err != nil {
		t.Fatalf("epoch-1 proof: %v", err)
	}
	root = applyBatch(t, writer, 1, root, []merkle.LeafUpdate{{ID: id1, Version: 2}})
	root = applyBatch(t, writer, 2, root, []merkle.LeafUpdate{{ID: id2, Version: 7}})
	if cache.locks != 0 {
		t.Fatalf("%d tree locks before any stale read", cache.locks)
	}

	// Resident state and the cached snapshot are both two epochs behind.
	raw, err := reader.FreshnessProof(id2, 3)
	if err != nil {
		t.Fatalf("epoch-3 proof over a stale cache: %v", err)
	}
	p, err := merkle.DecodeProof(raw)
	if err != nil {
		t.Fatal(err)
	}
	if v, present, err := p.Verify(root, id2); err != nil || !present || v != 7 {
		t.Fatalf("epoch-3 leaf: v=%d present=%v err=%v", v, present, err)
	}
	if cache.locks != 1 {
		t.Fatalf("tree locks = %d, want exactly one revalidation", cache.locks)
	}
	// Caught up: no further revalidation on the paths that succeed.
	if _, err := reader.FreshnessProof(id1, 3); err != nil {
		t.Fatal(err)
	}
	if cache.locks != 1 {
		t.Fatalf("tree locks = %d after a resident-state proof", cache.locks)
	}

	// Same for the update path, from a second stale reader.
	cache2 := &lazyCacheStore{ObjectStore: shared}
	updater := &FreshnessStore{inner: cache2}
	if _, err := updater.FreshnessProof(id1, 3); err != nil {
		t.Fatal(err)
	}
	root = applyBatch(t, writer, 3, root, []merkle.LeafUpdate{{ID: id1, Version: 3}})
	root = applyBatch(t, writer, 4, root, []merkle.LeafUpdate{{ID: id2, Version: 8}})
	root = applyBatch(t, updater, 5, root, []merkle.LeafUpdate{{ID: id1, Version: 4}})
	if cache2.locks != 1 {
		t.Fatalf("tree locks = %d, want exactly one revalidation", cache2.locks)
	}
	raw, err = writer.FreshnessProof(id1, 6)
	if err != nil {
		t.Fatalf("writer did not pick up the updater's epoch: %v", err)
	}
	if p, err = merkle.DecodeProof(raw); err != nil {
		t.Fatal(err)
	}
	if v, present, err := p.Verify(root, id1); err != nil || !present || v != 4 {
		t.Fatalf("epoch-6 leaf: v=%d present=%v err=%v", v, present, err)
	}

	// A store that really is behind stays unavailable, revalidated or not.
	if _, err := reader.FreshnessProof(id1, 9); !errors.Is(err, ErrEpochUnavailable) {
		t.Fatalf("future-epoch proof = %v, want ErrEpochUnavailable", err)
	}
	if _, err := reader.FreshnessUpdate(9, []merkle.LeafUpdate{{ID: id1, Version: 9}}); !errors.Is(err, ErrEpochUnavailable) {
		t.Fatalf("future-epoch update = %v, want ErrEpochUnavailable", err)
	}
}
