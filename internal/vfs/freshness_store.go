package vfs

import (
	"errors"
	"fmt"
	"sync"

	"nexus/internal/backend"
	"nexus/internal/enclave"
	"nexus/internal/merkle"
	"nexus/internal/obs"
	"nexus/internal/serial"
	"nexus/internal/uuid"
)

// FreshnessTreeObjectName is the store object holding the untrusted
// freshness-tree snapshot.
const FreshnessTreeObjectName = "freshness-tree"

// ErrEpochUnavailable reports a proof request for an epoch this store
// cannot reconstruct (neither current, previous, nor on-store). The
// enclave maps it to a fail-closed proof rejection.
var ErrEpochUnavailable = errors.New("vfs: freshness tree epoch unavailable")

// FreshnessStore upgrades any enclave.ObjectStore to the
// FreshnessProofStore surface merkle freshness mode needs: it maintains
// the full uuid→version Merkle tree on the untrusted side and serves
// membership/absence proofs against it, while the enclave holds only
// the root commitment (DESIGN.md §15).
//
// The tree snapshot persists as a plain (unsealed) store object — it
// holds nothing secret, only version counters, and its integrity is
// irrelevant: every proof drawn from it is verified inside the enclave
// against the sealed root, so tampering here can only cause fail-closed
// rejections, never acceptance of stale data.
//
// Crash convergence: the snapshot carries an undo log of the last
// batch, so the tree can serve proofs for its own epoch *and* the one
// before it. The update protocol (tree persists first, the enclave's
// sealed root commits second) therefore tolerates a crash between the
// two writes — a re-mounted enclave still at the old epoch gets
// epoch-consistent proofs, and re-applying the interrupted batch is
// idempotent.
type FreshnessStore struct {
	inner enclave.ObjectStore

	mu     sync.Mutex
	cur    *merkle.Tree
	epoch  uint64
	undo   []merkle.LeafUpdate // prior leaf values of the last batch (0 = absent)
	loaded bool
}

var _ enclave.FreshnessProofStore = (*FreshnessStore)(nil)

// NewFreshnessStore wraps inner. When inner supports streaming puts the
// returned store forwards them (the enclave type-asserts for
// StreamObjectStore on large writes).
func NewFreshnessStore(inner enclave.ObjectStore) enclave.FreshnessProofStore {
	fs := &FreshnessStore{inner: inner}
	if ss, ok := inner.(enclave.StreamObjectStore); ok {
		return &streamFreshnessStore{FreshnessStore: fs, stream: ss}
	}
	return fs
}

// streamFreshnessStore adds the StreamObjectStore upgrade when the
// wrapped store has it.
type streamFreshnessStore struct {
	*FreshnessStore
	stream enclave.StreamObjectStore
}

func (s *streamFreshnessStore) PutVersionedStream(name string, total int, next func() ([]byte, error)) (uint64, error) {
	return s.stream.PutVersionedStream(name, total, next)
}

// GetVersioned, PutVersioned, Delete and Lock forward to the wrapped
// store untouched — the tree rides alongside the object space, it does
// not interpose on it.
func (s *FreshnessStore) GetVersioned(name string) ([]byte, uint64, error) {
	return s.inner.GetVersioned(name)
}

func (s *FreshnessStore) PutVersioned(name string, data []byte) (uint64, error) {
	return s.inner.PutVersioned(name, data)
}

func (s *FreshnessStore) Delete(name string) error { return s.inner.Delete(name) }

func (s *FreshnessStore) Lock(name string) (func(), error) { return s.inner.Lock(name) }

// Instrument forwards the registry to the wrapped store (the enclave
// calls it for any store exposing the method).
func (s *FreshnessStore) Instrument(reg *obs.Registry) {
	if in, ok := s.inner.(interface{ Instrument(*obs.Registry) }); ok {
		in.Instrument(reg)
	}
}

// snapshotFormat versions the persisted tree snapshot.
const snapshotFormat = 1

// maxUndoEntries bounds a decoded undo log (a batch is at most one
// write-back drain's worth of objects).
const maxUndoEntries = 1 << 20

func encodeSnapshot(tree *merkle.Tree, epoch uint64, undo []merkle.LeafUpdate) []byte {
	enc := tree.Encode()
	w := serial.NewWriter(1 + 8 + 4 + len(undo)*(uuid.Size+8) + 4 + len(enc))
	w.WriteUint8(snapshotFormat)
	w.WriteUint64(epoch)
	w.WriteUint32(uint32(len(undo)))
	for _, u := range undo {
		w.WriteRaw(u.ID[:])
		w.WriteUint64(u.Version)
	}
	w.WriteBytes(enc)
	return w.Bytes()
}

func decodeSnapshot(data []byte) (tree *merkle.Tree, epoch uint64, undo []merkle.LeafUpdate, err error) {
	r := serial.NewReader(data)
	if f := r.ReadUint8("freshness snapshot format"); r.Err() == nil && f != snapshotFormat {
		return nil, 0, nil, fmt.Errorf("vfs: unknown freshness snapshot format %d", f)
	}
	epoch = r.ReadUint64("freshness snapshot epoch")
	n := r.ReadCount(maxUndoEntries, "freshness undo entries")
	for i := 0; i < n; i++ {
		var u merkle.LeafUpdate
		r.ReadRawInto(u.ID[:], "freshness undo id")
		u.Version = r.ReadUint64("freshness undo version")
		undo = append(undo, u)
	}
	enc := r.ReadBytes(0, "freshness snapshot tree")
	if err := r.Finish(); err != nil {
		return nil, 0, nil, fmt.Errorf("decoding freshness snapshot: %w", err)
	}
	if tree, err = merkle.DecodeTree(enc); err != nil {
		return nil, 0, nil, err
	}
	return tree, epoch, undo, nil
}

// loadLocked establishes the tree state, from the store when force is
// set or nothing is resident yet. A missing snapshot is a fresh volume:
// empty tree, epoch 0.
func (s *FreshnessStore) loadLocked(force bool) error {
	if s.loaded && !force {
		return nil
	}
	data, _, err := s.inner.GetVersioned(FreshnessTreeObjectName)
	if err != nil {
		if errors.Is(err, backend.ErrNotExist) {
			if !s.loaded {
				s.cur, s.epoch, s.undo, s.loaded = merkle.New(), 0, nil, true
			}
			return nil
		}
		return err
	}
	tree, epoch, undo, err := decodeSnapshot(data)
	if err != nil {
		return err
	}
	// Never regress onto an older on-store snapshot over newer resident
	// state (the put of our own snapshot may have raced a reader).
	if s.loaded && epoch < s.epoch {
		return nil
	}
	s.cur, s.epoch, s.undo, s.loaded = tree, epoch, undo, true
	return nil
}

// prevTreeLocked rebuilds the previous epoch's tree by applying the
// undo log to a clone of the current one.
func (s *FreshnessStore) prevTreeLocked() *merkle.Tree {
	t := s.cur.Clone()
	for _, u := range s.undo {
		t.Set(u.ID, u.Version)
	}
	return t
}

// syncLocked brings the resident tree to a state that can serve epoch —
// the tree's own epoch or the one before it — escalating only as far as
// it must: the resident state, then a re-read of the snapshot, then a
// re-read under the snapshot's store lock. The last step is for caching
// stores (the AFS client): the caller holds the freshness-root lock and
// has just read a root at the new epoch, but a fetch that raced the
// writer's store can re-cache the previous snapshot after its callback
// break, so a plain get may still serve it; taking the object's lock
// revalidates it. Root → tree is
// the only order the two locks are ever taken in.
func (s *FreshnessStore) syncLocked(epoch uint64) error {
	if err := s.loadLocked(false); err != nil {
		return err
	}
	if s.servesLocked(epoch) {
		return nil
	}
	if err := s.loadLocked(true); err != nil {
		return err
	}
	if s.servesLocked(epoch) {
		return nil
	}
	unlock, err := s.inner.Lock(FreshnessTreeObjectName)
	if err != nil {
		return err
	}
	err = s.loadLocked(true)
	unlock()
	if err != nil {
		return err
	}
	if s.servesLocked(epoch) {
		return nil
	}
	return fmt.Errorf("%w: want epoch %d, tree at %d", ErrEpochUnavailable, epoch, s.epoch)
}

// servesLocked reports whether the resident tree is at epoch or one
// batch past it (the undo log reaches back exactly one).
func (s *FreshnessStore) servesLocked(epoch uint64) bool {
	return epoch == s.epoch || epoch+1 == s.epoch
}

// FreshnessProof implements enclave.FreshnessProofStore.
func (s *FreshnessStore) FreshnessProof(id uuid.UUID, epoch uint64) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.syncLocked(epoch); err != nil {
		return nil, err
	}
	t := s.cur
	if epoch != s.epoch {
		t = s.prevTreeLocked()
	}
	return t.Prove(id).Encode(), nil
}

// FreshnessUpdate implements enclave.FreshnessProofStore: it applies
// the batch to the tree at the given epoch and returns one proof per
// update, each against the tree state just before that update — the
// sequence the enclave folds into its next root. The snapshot persists
// before the new state is committed in memory, so a failed put leaves
// the store and the wrapper consistent at the old epoch.
func (s *FreshnessStore) FreshnessUpdate(epoch uint64, updates []merkle.LeafUpdate) ([][]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.syncLocked(epoch); err != nil {
		return nil, err
	}
	if epoch != s.epoch {
		// The previous batch's sealed root never committed (crash or
		// fault between the two writes): rewind and re-apply.
		s.cur, s.epoch, s.undo = s.prevTreeLocked(), s.epoch-1, nil
	}

	next := s.cur.Clone()
	proofs := make([][]byte, 0, len(updates))
	var undo []merkle.LeafUpdate
	seen := make(map[uuid.UUID]bool, len(updates))
	for _, u := range updates {
		proofs = append(proofs, next.Prove(u.ID).Encode())
		if !seen[u.ID] {
			seen[u.ID] = true
			prior, _ := next.Lookup(u.ID) // 0 when absent — Set's delete spelling
			undo = append(undo, merkle.LeafUpdate{ID: u.ID, Version: prior})
		}
		next.Set(u.ID, u.Version)
	}

	if _, err := s.inner.PutVersioned(FreshnessTreeObjectName, encodeSnapshot(next, epoch+1, undo)); err != nil {
		return nil, err
	}
	s.cur, s.epoch, s.undo = next, epoch+1, undo
	return proofs, nil
}
