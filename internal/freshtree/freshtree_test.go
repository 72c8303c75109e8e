package freshtree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"

	"nexus/internal/backend"
	"nexus/internal/merkle"
	"nexus/internal/serial"
	"nexus/internal/uuid"
)

func fsTestUUID(b byte) uuid.UUID {
	var id uuid.UUID
	id[0] = b
	id[15] = ^b
	return id
}

// memStore is a versioned, streaming ObjectStore over a memory backend.
type memStore struct {
	mem *backend.MemStore

	mu       sync.Mutex
	versions map[string]uint64
}

func newMemStore() *memStore {
	return &memStore{mem: backend.NewMemStore(), versions: map[string]uint64{}}
}

func (s *memStore) GetVersioned(name string) ([]byte, uint64, error) {
	data, err := s.mem.Get(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	return data, s.versions[name], err
}

func (s *memStore) PutVersioned(name string, data []byte) (uint64, error) {
	if err := s.mem.Put(name, data); err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.versions[name]++
	return s.versions[name], nil
}

func (s *memStore) PutVersionedStream(name string, total int, next func() ([]byte, error)) (uint64, error) {
	buf := make([]byte, 0, total)
	for {
		seg, err := next()
		if err != nil {
			return 0, err
		}
		if seg == nil {
			return s.PutVersioned(name, buf)
		}
		buf = append(buf, seg...)
	}
}

func (s *memStore) Delete(name string) error { return s.mem.Delete(name) }

func (s *memStore) Lock(name string) (func(), error) { return s.mem.Lock(name) }

// scriptedStore is the store under a Store in these tests: it
// counts gets and puts by object name, a get can be made to fail, and a
// put can be made to fail outright or to take effect and then lose its
// reply.
type scriptedStore struct {
	ObjectStore
	gets, puts map[string]int
	// failGet names the one object whose next get fails; failPut and
	// losePut the one whose next put fails (before and after reaching the
	// store, respectively).
	failGet, failPut, losePut string
}

var errScripted = errors.New("scripted store fault")

func newScriptedStore(inner ObjectStore) *scriptedStore {
	return &scriptedStore{ObjectStore: inner, gets: map[string]int{}, puts: map[string]int{}}
}

func (s *scriptedStore) GetVersioned(name string) ([]byte, uint64, error) {
	s.gets[name]++
	if name == s.failGet {
		s.failGet = ""
		return nil, 0, errScripted
	}
	return s.ObjectStore.GetVersioned(name)
}

func (s *scriptedStore) PutVersioned(name string, data []byte) (uint64, error) {
	s.puts[name]++
	if name == s.failPut {
		s.failPut = ""
		return 0, errScripted
	}
	v, err := s.ObjectStore.PutVersioned(name, data)
	if name == s.losePut && err == nil {
		s.losePut = ""
		return 0, errScripted
	}
	return v, err
}

func newTestStore(t *testing.T) (*Store, *scriptedStore) {
	t.Helper()
	inner := newMemStore()
	// memStore streams, so the wrapper is the stream variant.
	if _, ok := New(inner).(*streamStore); !ok {
		t.Fatal("wrapper over a streaming store is not the stream variant")
	}
	shared := newScriptedStore(inner)
	return &Store{inner: shared}, shared
}

// fakeSealed stands in for the enclave's sealed root blob, which the
// store never looks inside.
func fakeSealed(epoch uint64, root [32]byte) []byte {
	return []byte(fmt.Sprintf("sealed root, epoch %d, %x", epoch, root))
}

// stageBatch pushes one update batch at the given epoch and folds the
// returned proofs the way the enclave does, returning the root every
// proof chain converges to. The batch is not durable until the root put.
func stageBatch(t *testing.T, s *Store, epoch uint64, root [32]byte, batch []merkle.LeafUpdate) [32]byte {
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

// commitBatch is a whole drain: stage the batch, then put the sealed
// root that commits to it.
func commitBatch(t *testing.T, s *Store, epoch uint64, root [32]byte, batch []merkle.LeafUpdate) [32]byte {
	t.Helper()
	root = stageBatch(t, s, epoch, root, batch)
	if _, err := s.PutVersioned(RootObjectName, fakeSealed(epoch+1, root)); err != nil {
		t.Fatalf("root put at epoch %d: %v", epoch+1, err)
	}
	return root
}

// wantLeaf checks the store's proof for id at epoch against root: the
// leaf at version want, or absent when want is 0.
func wantLeaf(t *testing.T, s *Store, id uuid.UUID, epoch uint64, root [32]byte, want uint64) {
	t.Helper()
	raw, err := s.FreshnessProof(id, epoch)
	if err != nil {
		t.Fatalf("proof for %s at epoch %d: %v", id, epoch, err)
	}
	p, err := merkle.DecodeProof(raw)
	if err != nil {
		t.Fatal(err)
	}
	v, present, err := p.Verify(root, id)
	if err != nil || present != (want != 0) || v != want {
		t.Fatalf("leaf %s at epoch %d: v=%d present=%v err=%v, want v=%d", id, epoch, v, present, err, want)
	}
}

// checkpointEpoch reads the epoch of the checkpoint on the store.
func checkpointEpoch(t *testing.T, store ObjectStore) (uint64, bool) {
	t.Helper()
	data, _, err := store.GetVersioned(TreeObjectName)
	if errors.Is(err, backend.ErrNotExist) {
		return 0, false
	}
	if err != nil {
		t.Fatal(err)
	}
	_, epoch, err := decodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	return epoch, true
}

// history drives one writer through one-leaf drains, remembering what
// it committed.
type history struct {
	t     *testing.T
	s     *Store
	store *scriptedStore
	epoch uint64
	root  [32]byte
	n     byte
}

func newHistory(t *testing.T) *history {
	s, store := newTestStore(t)
	return &history{t: t, s: s, store: store, root: merkle.EmptyRoot()}
}

// drain commits one batch that adds a new leaf.
func (h *history) drain() {
	h.t.Helper()
	h.n++
	h.root = commitBatch(h.t, h.s, h.epoch, h.root, []merkle.LeafUpdate{{ID: fsTestUUID(h.n), Version: 1}})
	h.epoch++
}

// drainToCheckpoint drains until a drain writes a checkpoint, and
// returns that checkpoint's epoch.
func (h *history) drainToCheckpoint() uint64 {
	h.t.Helper()
	before := h.store.puts[TreeObjectName]
	for i := 0; h.store.puts[TreeObjectName] == before; i++ {
		if i > 64 {
			h.t.Fatal("64 drains wrote no checkpoint")
		}
		h.drain()
	}
	epoch, _ := checkpointEpoch(h.t, h.store.ObjectStore)
	return epoch
}

func TestFreshnessStoreProofAndUpdateRoundTrip(t *testing.T) {
	s, store := newTestStore(t)

	// Empty store: absence proof at epoch 0 against the empty root.
	wantLeaf(t, s, fsTestUUID(1), 0, merkle.EmptyRoot(), 0)

	root := commitBatch(t, s, 0, merkle.EmptyRoot(), []merkle.LeafUpdate{
		{ID: fsTestUUID(1), Version: 3},
		{ID: fsTestUUID(2), Version: 1},
	})
	root = commitBatch(t, s, 1, root, []merkle.LeafUpdate{
		{ID: fsTestUUID(2), Version: 2},
		{ID: fsTestUUID(3), Version: 9},
		{ID: fsTestUUID(1), Version: 0},
	})

	// Proofs at the current epoch verify against the folded root.
	for id, want := range map[byte]uint64{1: 0, 2: 2, 3: 9} {
		wantLeaf(t, s, fsTestUUID(id), 2, root, want)
	}

	// The enclave reads back exactly the blob it put; the trailer (one
	// entry per changed leaf, the deletion included) exists only below.
	got, _, err := s.GetVersioned(RootObjectName)
	if err != nil || !bytes.Equal(got, fakeSealed(2, root)) {
		t.Fatalf("root read through the store = %q, %v; want the sealed blob alone", got, err)
	}
	framed, _, err := store.GetVersioned(RootObjectName)
	if err != nil {
		t.Fatal(err)
	}
	if _, tr, ok := splitDecoded(framed); !ok || tr.base != 0 || tr.tip != 2 || len(tr.delta) != 3 || tr.spent != 2+3 {
		t.Fatalf("root object on the store: framed=%v trailer=%+v", ok, tr)
	}
}

// A batch is durable only with the root put: until then the store serves
// the old epoch, nothing of the batch is on the store, and a retried,
// larger batch converges on the root a clean run produces.
func TestFreshnessStoreBatchCommitsWithRootPut(t *testing.T) {
	s, store := newTestStore(t)
	root1 := commitBatch(t, s, 0, merkle.EmptyRoot(), []merkle.LeafUpdate{{ID: fsTestUUID(1), Version: 1}})
	before, _, err := store.GetVersioned(RootObjectName)
	if err != nil {
		t.Fatal(err)
	}

	// Staged, never committed (the enclave rejected a proof, or died).
	stageBatch(t, s, 1, root1, []merkle.LeafUpdate{{ID: fsTestUUID(2), Version: 5}})
	if _, err := s.FreshnessProof(fsTestUUID(2), 2); !errors.Is(err, ErrEpochUnavailable) {
		t.Fatalf("proof at the staged epoch = %v, want ErrEpochUnavailable", err)
	}
	wantLeaf(t, s, fsTestUUID(2), 1, root1, 0)
	if after, _, err := store.GetVersioned(RootObjectName); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("staging a batch changed the root object (err %v)", err)
	}

	retry := []merkle.LeafUpdate{{ID: fsTestUUID(2), Version: 5}, {ID: fsTestUUID(3), Version: 1}}
	root2 := commitBatch(t, s, 1, root1, retry)
	clean, _ := newTestStore(t)
	want := commitBatch(t, clean, 0, merkle.EmptyRoot(), []merkle.LeafUpdate{{ID: fsTestUUID(1), Version: 1}})
	want = commitBatch(t, clean, 1, want, retry)
	if root2 != want {
		t.Fatal("retried batch did not converge on the clean run's root")
	}
	wantLeaf(t, s, fsTestUUID(2), 2, root2, 5)

	// The staged batch is spent by the put that commits it.
	if _, err := s.PutVersioned(RootObjectName, fakeSealed(3, root2)); err == nil {
		t.Fatal("root put with no staged batch accepted")
	}
}

// A fresh wrapper over the same store (a new process) reads exactly two
// freshness objects — the root and the checkpoint — and then serves
// every proof from memory.
func TestFreshnessStoreSnapshotPersistsAcrossWrappers(t *testing.T) {
	h := newHistory(t)
	h.drainToCheckpoint()
	h.drain()
	h.drain()

	store := newScriptedStore(h.store.ObjectStore)
	s2 := &Store{inner: store}
	if _, _, err := s2.GetVersioned(RootObjectName); err != nil {
		t.Fatal(err)
	}
	for n := byte(1); n <= h.n; n++ {
		wantLeaf(t, s2, fsTestUUID(n), h.epoch, h.root, 1)
	}
	wantLeaf(t, s2, fsTestUUID(h.n+1), h.epoch, h.root, 0)
	if store.gets[RootObjectName] != 1 || store.gets[TreeObjectName] != 1 || len(store.gets) != 2 {
		t.Fatalf("a fresh wrapper's gets = %v, want one of the root and one of the checkpoint", store.gets)
	}
	// One epoch back is gone with the root object that committed to it.
	if _, err := s2.FreshnessProof(fsTestUUID(1), h.epoch-1); !errors.Is(err, ErrEpochUnavailable) {
		t.Fatalf("previous-epoch proof = %v, want ErrEpochUnavailable", err)
	}
}

func TestFreshnessStoreSnapshotDecodeRejectsGarbage(t *testing.T) {
	h := newHistory(t)
	h.drainToCheckpoint()
	blob, _, err := h.store.GetVersioned(TreeObjectName)
	if err != nil {
		t.Fatal(err)
	}
	for name, mut := range map[string][]byte{
		"empty":      {},
		"bad format": append([]byte{99}, blob[1:]...),
		"truncated":  blob[:len(blob)-1],
	} {
		if _, err := h.store.PutVersioned(TreeObjectName, mut); err != nil {
			t.Fatal(err)
		}
		s2 := &Store{inner: h.store}
		if _, err := s2.FreshnessProof(fsTestUUID(1), h.epoch); err == nil {
			t.Errorf("%s checkpoint: proof served from garbage", name)
		}
	}
}

// TestFreshnessStoreRetiredLayoutFailsClosed: a store directory in the
// layouts written before the trailer existed — a bare sealed root, a
// format-1 snapshot — serves no proof and stages no update, whichever of
// the two it pairs with the current layout's other object. The root read
// hands the bare root up untouched (the enclave's own checks see it), and
// nothing is written.
func TestFreshnessStoreRetiredLayoutFailsClosed(t *testing.T) {
	tree := merkle.New()
	tree.Set(fsTestUUID(1), 4)
	tree.Set(fsTestUUID(2), 1)
	enc := tree.Encode()
	w := serial.NewWriter(64 + len(enc))
	w.WriteUint8(1)
	w.WriteUint64(7)
	w.WriteUint32(1) // the one-batch log a snapshot carried
	id := fsTestUUID(2)
	w.WriteRaw(id[:])
	w.WriteUint64(0)
	w.WriteBytes(enc)
	snapshot := w.Bytes()
	bare := fakeSealed(7, tree.Root())
	framed := appendRootTrailer(bare, rootTrailer{base: 7, tip: 7})
	checkpoint := encodeCheckpoint(tree, 7)

	for name, objects := range map[string][2][]byte{
		"bare root, format-1 snapshot":   {bare, snapshot},
		"bare root, checkpoint":          {bare, checkpoint},
		"framed root, format-1 snapshot": {framed, snapshot},
	} {
		_, store := newTestStore(t)
		for i, obj := range []string{RootObjectName, TreeObjectName} {
			if _, err := store.PutVersioned(obj, objects[i]); err != nil {
				t.Fatal(err)
			}
		}
		puts := len(store.puts)
		s := &Store{inner: store}
		if got, _, err := s.GetVersioned(RootObjectName); err != nil || !bytes.Equal(got, bare) {
			t.Fatalf("%s: root read through the store = %q, %v", name, got, err)
		}
		if _, err := s.FreshnessProof(fsTestUUID(1), 7); !errors.Is(err, ErrEpochUnavailable) {
			t.Fatalf("%s: proof = %v, want ErrEpochUnavailable", name, err)
		}
		if _, err := s.FreshnessUpdate(7, []merkle.LeafUpdate{{ID: fsTestUUID(3), Version: 2}}); !errors.Is(err, ErrEpochUnavailable) {
			t.Fatalf("%s: update = %v, want ErrEpochUnavailable", name, err)
		}
		if len(store.puts) != puts {
			t.Fatalf("%s: the store was written: %v", name, store.puts)
		}
	}
	if _, _, err := decodeCheckpoint(snapshot); !errors.Is(err, ErrEpochUnavailable) {
		t.Fatalf("decodeCheckpoint(format-1 snapshot) = %v, want ErrEpochUnavailable", err)
	}
}

func TestFreshnessStoreUpdateAtWrongEpoch(t *testing.T) {
	s, _ := newTestStore(t)
	commitBatch(t, s, 0, merkle.EmptyRoot(), []merkle.LeafUpdate{{ID: fsTestUUID(1), Version: 1}})
	for _, epoch := range []uint64{0, 7} {
		if _, err := s.FreshnessUpdate(epoch, []merkle.LeafUpdate{{ID: fsTestUUID(2), Version: 1}}); !errors.Is(err, ErrEpochUnavailable) {
			t.Fatalf("update at epoch %d of a store at 1 = %v, want ErrEpochUnavailable", epoch, err)
		}
	}
}

// A root read whose tree cannot follow it — here the checkpoint the
// root's trailer needs fails to load — leaves no tree resident at the
// epoch the store has left. An update the enclave staged at that epoch
// before the read is refused, as it is when the tree did follow, and not
// answered with the old tree's proofs; once the checkpoint loads, the
// update at the root's epoch goes through.
func TestFreshnessStoreRefusesEpochItCouldNotFollow(t *testing.T) {
	h := newHistory(t)
	h.drain()
	reader := &Store{inner: newScriptedStore(h.store)}
	if _, _, err := reader.GetVersioned(RootObjectName); err != nil {
		t.Fatal(err)
	}
	stale := h.epoch
	h.drainToCheckpoint()
	h.drain() // the root's trailer now starts past the reader's tree

	h.store.failGet = TreeObjectName
	if _, _, err := reader.GetVersioned(RootObjectName); err != nil {
		t.Fatalf("root read with its checkpoint unreadable: %v", err)
	}
	batch := []merkle.LeafUpdate{{ID: fsTestUUID(1), Version: 2}}
	if _, err := reader.FreshnessUpdate(stale, batch); !errors.Is(err, ErrEpochUnavailable) {
		t.Fatalf("update at the epoch the store left = %v, want ErrEpochUnavailable", err)
	}
	h.root = commitBatch(t, reader, h.epoch, h.root, batch)
	h.epoch++
	wantLeaf(t, h.s, fsTestUUID(1), h.epoch, h.root, 2)
}

// lazyCacheStore models a caching client whose invalidations arrive
// late (the AFS whole-file cache): once it has fetched the checkpoint it
// keeps serving that copy to plain gets, and only a Lock on the name
// revalidates it.
type lazyCacheStore struct {
	ObjectStore
	cached  []byte
	version uint64
	locks   int
}

func (c *lazyCacheStore) GetVersioned(name string) ([]byte, uint64, error) {
	if name != TreeObjectName {
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
	if name == TreeObjectName {
		c.locks++
		c.cached = nil
	}
	return c.ObjectStore.Lock(name)
}

// A reader whose store still serves the previous checkpoint to plain
// gets must not give up: under the root lock the enclave has seen a root
// whose trailer names the new one, so it exists and a revalidating fetch
// finds it.
func TestFreshnessStoreRevalidatesStaleSnapshot(t *testing.T) {
	h := newHistory(t)
	h.drainToCheckpoint()
	h.drain()

	cache := &lazyCacheStore{ObjectStore: h.store}
	reader := &Store{inner: cache}
	// The reader fetches the first checkpoint; its cache now holds it.
	wantLeaf(t, reader, fsTestUUID(1), h.epoch, h.root, 1)
	h.drainToCheckpoint()
	h.drain()
	if cache.locks != 0 {
		t.Fatalf("%d checkpoint locks before any stale read", cache.locks)
	}

	// Resident state and the cached checkpoint both predate the root's base.
	wantLeaf(t, reader, fsTestUUID(h.n), h.epoch, h.root, 1)
	if cache.locks != 1 {
		t.Fatalf("checkpoint locks = %d, want exactly one revalidation", cache.locks)
	}
	// Caught up: no further revalidation on the paths that succeed.
	wantLeaf(t, reader, fsTestUUID(1), h.epoch, h.root, 1)
	h.drain()
	wantLeaf(t, reader, fsTestUUID(h.n), h.epoch, h.root, 1)
	if cache.locks != 1 {
		t.Fatalf("checkpoint locks = %d after proofs the resident tree and the trailer serve", cache.locks)
	}

	// Same for the update path, from a second stale reader.
	cache2 := &lazyCacheStore{ObjectStore: h.store}
	updater := &Store{inner: cache2}
	wantLeaf(t, updater, fsTestUUID(1), h.epoch, h.root, 1)
	h.drainToCheckpoint()
	h.drain()
	h.root = commitBatch(t, updater, h.epoch, h.root, []merkle.LeafUpdate{{ID: fsTestUUID(1), Version: 4}})
	h.epoch++
	if cache2.locks != 1 {
		t.Fatalf("checkpoint locks = %d, want exactly one revalidation", cache2.locks)
	}
	// The writer picks up the updater's epoch from the root object alone.
	wantLeaf(t, h.s, fsTestUUID(1), h.epoch, h.root, 4)

	// A store that really is behind stays unavailable, revalidated or not.
	if _, err := reader.FreshnessProof(fsTestUUID(1), h.epoch+3); !errors.Is(err, ErrEpochUnavailable) {
		t.Fatalf("future-epoch proof = %v, want ErrEpochUnavailable", err)
	}
	if _, err := reader.FreshnessUpdate(h.epoch+3, []merkle.LeafUpdate{{ID: fsTestUUID(1), Version: 9}}); !errors.Is(err, ErrEpochUnavailable) {
		t.Fatalf("future-epoch update = %v, want ErrEpochUnavailable", err)
	}
}

// A writer that dies after the checkpoint put and before the root put
// leaves a checkpoint newer than the root's base and no newer than its
// tip. That is a consistent volume: it mounts, and the interrupted drain
// — retried with more in it — converges on the clean run's root.
func TestFreshnessStoreCrashBetweenCheckpointAndRoot(t *testing.T) {
	h := newHistory(t)
	first := h.drainToCheckpoint()
	for h.s.at.spent*deltaEntrySize < checkpointSize(h.s.cur.Len()) {
		h.drain()
	}
	h.store.failPut = RootObjectName
	id := fsTestUUID(200)
	root := stageBatch(t, h.s, h.epoch, h.root, []merkle.LeafUpdate{{ID: id, Version: 1}})
	if _, err := h.s.PutVersioned(RootObjectName, fakeSealed(h.epoch+1, root)); !errors.Is(err, errScripted) {
		t.Fatalf("root put = %v, want the scripted fault", err)
	}
	second, _ := checkpointEpoch(t, h.store)
	framed, _, err := h.store.GetVersioned(RootObjectName)
	if err != nil {
		t.Fatal(err)
	}
	_, tr, _ := splitDecoded(framed)
	if second != h.epoch || tr.base != first || tr.tip != h.epoch || first == second {
		t.Fatalf("checkpoint at %d, root covers %d to %d: not the crash window (first checkpoint %d, epoch %d)", second, tr.base, tr.tip, first, h.epoch)
	}

	mounted := &Store{inner: h.store}
	for n := byte(1); n <= h.n; n++ {
		wantLeaf(t, mounted, fsTestUUID(n), h.epoch, h.root, 1)
	}
	wantLeaf(t, mounted, id, h.epoch, h.root, 0)

	retry := []merkle.LeafUpdate{{ID: id, Version: 1}, {ID: fsTestUUID(201), Version: 1}}
	got := commitBatch(t, mounted, h.epoch, h.root, retry)
	want := h.s.cur.Clone()
	for _, u := range retry {
		want.Set(u.ID, u.Version)
	}
	if got != want.Root() {
		t.Fatal("retried drain did not converge on the clean run's root")
	}
	wantLeaf(t, &Store{inner: h.store}, id, h.epoch+1, got, 1)
}

// A root put that fails, and one that takes effect but loses its reply
// (the server has e+1, the client believes e): either way the client
// re-reads the root under its lock, as the enclave does, and the retried,
// larger batch lands on the leaf set — and root — of a clean run.
func TestFreshnessStoreRootPutFailsOrLosesReply(t *testing.T) {
	for _, lost := range []bool{false, true} {
		t.Run(fmt.Sprintf("lost=%v", lost), func(t *testing.T) {
			h := newHistory(t)
			h.drain()
			h.drain()
			first := []merkle.LeafUpdate{{ID: fsTestUUID(1), Version: 2}, {ID: fsTestUUID(50), Version: 1}}
			if lost {
				h.store.losePut = RootObjectName
			} else {
				h.store.failPut = RootObjectName
			}
			root := stageBatch(t, h.s, h.epoch, h.root, first)
			if _, err := h.s.PutVersioned(RootObjectName, fakeSealed(h.epoch+1, root)); !errors.Is(err, errScripted) {
				t.Fatalf("root put = %v, want the scripted fault", err)
			}
			// The client still believes the old epoch, and can prove it.
			wantLeaf(t, h.s, fsTestUUID(1), h.epoch, h.root, 1)

			// Retry: re-read the root, then drain from wherever it is.
			sealed, _, err := h.s.GetVersioned(RootObjectName)
			if err != nil {
				t.Fatal(err)
			}
			epoch, from := h.epoch, h.root
			if lost {
				epoch, from = h.epoch+1, root
			}
			if !bytes.Equal(sealed, fakeSealed(epoch, from)) {
				t.Fatalf("root after the fault = %q, want epoch %d's", sealed, epoch)
			}
			retry := append(first[:len(first):len(first)], merkle.LeafUpdate{ID: fsTestUUID(51), Version: 3})
			got := commitBatch(t, h.s, epoch, from, retry)

			clean := newHistory(t)
			clean.drain()
			clean.drain()
			if want := commitBatch(t, clean.s, clean.epoch, clean.root, retry); got != want {
				t.Fatal("retried drain did not converge on the clean run's root")
			}
			wantLeaf(t, &Store{inner: h.store}, fsTestUUID(51), epoch+1, got, 3)
		})
	}
}

// Two clients taking turns to drain follow each other through the root
// object's trailer alone: after each has mounted, neither fetches the
// checkpoint again, however many checkpoints the other writes.
func TestFreshnessStoreAlternatingClientsNeverRefetchCheckpoint(t *testing.T) {
	_, shared := newTestStore(t)
	var clients [2]*Store
	var stores [2]*scriptedStore
	for i := range clients {
		stores[i] = newScriptedStore(shared)
		clients[i] = &Store{inner: stores[i]}
	}
	root, epoch := merkle.EmptyRoot(), uint64(0)
	for turn := 0; turn < 60; turn++ {
		c := clients[turn%2]
		// The enclave re-reads the root under its lock before every drain.
		if _, _, err := c.GetVersioned(RootObjectName); err != nil && !errors.Is(err, backend.ErrNotExist) {
			t.Fatal(err)
		}
		root = commitBatch(t, c, epoch, root, []merkle.LeafUpdate{
			{ID: fsTestUUID(byte(turn)), Version: 1},
			{ID: fsTestUUID(0), Version: uint64(turn + 1)},
		})
		epoch++
	}
	if n := shared.puts[TreeObjectName]; n < 3 {
		t.Fatalf("%d checkpoints in 60 drains: the case under test did not occur", n)
	}
	for i, st := range stores {
		// A client's first root read finds no checkpoint yet (client 0) or
		// mounts from it (client 1): at most one get each, ever.
		if n := st.gets[TreeObjectName]; n > 1 {
			t.Errorf("client %d fetched the checkpoint %d times across %d checkpoints", i, n, shared.puts[TreeObjectName])
		}
	}
	wantLeaf(t, clients[0], fsTestUUID(0), epoch, root, 60)
}

// TestConcurrentProofsBesideCommits serves proofs and root reads from one
// goroutine while the test commits drains through the same Store, so the
// race detector checks that the resident and staged trees are touched only
// under s.mu. Every proof served for the epoch just committed verifies
// against that epoch's root.
func TestConcurrentProofsBesideCommits(t *testing.T) {
	s := New(newMemStore()).(*streamStore).Store
	var mu sync.Mutex
	epoch, root := uint64(0), merkle.EmptyRoot()
	done := make(chan struct{})
	served := make(chan int)
	go func() {
		n := 0
		defer func() { served <- n }()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, _, err := s.GetVersioned(RootObjectName); err != nil && !errors.Is(err, backend.ErrNotExist) {
				t.Errorf("root read: %v", err)
				return
			}
			mu.Lock()
			e, r := epoch, root
			mu.Unlock()
			raw, err := s.FreshnessProof(fsTestUUID(1), e)
			if errors.Is(err, ErrEpochUnavailable) {
				continue // a commit moved the tree past e
			}
			if err != nil {
				t.Errorf("proof at epoch %d: %v", e, err)
				return
			}
			p, err := merkle.DecodeProof(raw)
			if err != nil {
				t.Errorf("proof at epoch %d: %v", e, err)
				return
			}
			if _, _, err := p.Verify(r, fsTestUUID(1)); err != nil {
				t.Errorf("proof at epoch %d does not verify against its root: %v", e, err)
				return
			}
			n++
		}
	}()
	for i := 0; i < 40; i++ {
		mu.Lock()
		e, r := epoch, root
		mu.Unlock()
		r = commitBatch(t, s, e, r, []merkle.LeafUpdate{{ID: fsTestUUID(1), Version: uint64(i + 1)}})
		mu.Lock()
		epoch, root = e+1, r
		mu.Unlock()
	}
	close(done)
	t.Logf("%d proofs served beside 40 commits", <-served)
}

// Whatever is done to the trailer, a fresh wrapper serves nothing that
// verifies against the committed root: a frame that disagrees with
// itself or with the checkpoint is refused (ErrEpochUnavailable), not
// guessed at, and one that parses but lies yields a tree with another
// root. Either way the enclave rejects the load.
func TestFreshnessStoreTamperedTrailerFailsClosed(t *testing.T) {
	h := newHistory(t)
	h.drainToCheckpoint()
	h.drain()
	older, _, err := h.store.GetVersioned(RootObjectName)
	if err != nil {
		t.Fatal(err)
	}
	h.root = commitBatch(t, h.s, h.epoch, h.root, []merkle.LeafUpdate{{ID: fsTestUUID(1), Version: 6}})
	h.epoch++
	honest, _, err := h.store.GetVersioned(RootObjectName)
	if err != nil {
		t.Fatal(err)
	}
	sealed, tr, _ := splitDecoded(honest)
	_, oldTrailer, _ := splitDecoded(older)
	reframe := func(mut func(*rootTrailer)) []byte {
		c := tr
		c.delta = append([]merkle.LeafUpdate(nil), tr.delta...)
		mut(&c)
		return appendRootTrailer(sealed, c)
	}
	offByOne := append([]byte(nil), honest...)
	length := offByOne[len(offByOne)-rootFooterSize:]
	binary.LittleEndian.PutUint32(length, binary.LittleEndian.Uint32(length)+1)
	cases := map[string][]byte{
		"truncated":                   honest[:len(honest)-3],
		"footer length off by one":    offByOne,
		"stale version in the delta":  reframe(func(c *rootTrailer) { c.delta[len(c.delta)-1].Version = 1 }),
		"leaf dropped from the delta": reframe(func(c *rootTrailer) { c.delta = c.delta[:len(c.delta)-1] }),
		"older root's trailer":        appendRootTrailer(sealed, oldTrailer),
		"base past the checkpoint":    reframe(func(c *rootTrailer) { c.base = c.tip }),
		"tip past the sealed epoch":   reframe(func(c *rootTrailer) { c.tip += 2 }),
	}
	for name, blob := range cases {
		t.Run(name, func(t *testing.T) {
			if bytes.Equal(blob, honest) {
				t.Fatal("the case changed nothing")
			}
			if _, err := h.store.PutVersioned(RootObjectName, blob); err != nil {
				t.Fatal(err)
			}
			s := &Store{inner: h.store}
			if _, _, err := s.GetVersioned(RootObjectName); err != nil {
				t.Fatal(err)
			}
			raw, err := s.FreshnessProof(fsTestUUID(1), h.epoch)
			if err != nil {
				if !errors.Is(err, ErrEpochUnavailable) {
					t.Fatalf("proof = %v, want ErrEpochUnavailable or a proof that does not verify", err)
				}
				return
			}
			p, err := merkle.DecodeProof(raw)
			if err != nil {
				t.Fatal(err)
			}
			if v, present, err := p.Verify(h.root, fsTestUUID(1)); err == nil {
				t.Fatalf("proof from a tampered trailer verified: v=%d present=%v", v, present)
			}
		})
	}
	// And the honest frame, put back, serves the committed version.
	if _, err := h.store.PutVersioned(RootObjectName, honest); err != nil {
		t.Fatal(err)
	}
	wantLeaf(t, &Store{inner: h.store}, fsTestUUID(1), h.epoch, h.root, 6)
}

// The checkpoint rule depends on leaf and entry counts alone, and keeps
// the two costs it trades — re-uploaded delta entries and checkpoints —
// within a factor of two of each other over a long run.
func TestFreshnessStoreCheckpointRuleBalancesCosts(t *testing.T) {
	s, store := newTestStore(t)
	root, epoch := merkle.EmptyRoot(), uint64(0)
	var id uuid.UUID
	var deltaBytes, checkpointBytes uint64
	for i := 0; i < 1500; i++ {
		id[0], id[1], id[8] = byte(i), byte(i>>8), 1
		before := store.puts[TreeObjectName]
		root = commitBatch(t, s, epoch, root, []merkle.LeafUpdate{{ID: id, Version: 1}})
		epoch++
		deltaBytes += uint64(len(s.at.delta)) * deltaEntrySize
		if store.puts[TreeObjectName] != before {
			data, _, err := store.GetVersioned(TreeObjectName)
			if err != nil {
				t.Fatal(err)
			}
			if got, est := uint64(len(data)), checkpointSize(s.cur.Len()-1); got+2 < est || got > est+2 {
				t.Fatalf("checkpoint of %d leaves is %d bytes, the rule reckons %d", s.cur.Len()-1, got, est)
			}
			checkpointBytes += uint64(len(data))
		}
	}
	if checkpointBytes == 0 || deltaBytes > 2*checkpointBytes+checkpointSize(1500) || checkpointBytes > 2*deltaBytes {
		t.Fatalf("over 1500 drains: %d delta bytes, %d checkpoint bytes — not balanced", deltaBytes, checkpointBytes)
	}
	whole := uint64(1500) * checkpointSize(750)
	if total := deltaBytes + checkpointBytes; total*8 > whole {
		t.Fatalf("checkpoint + delta uploaded %d bytes; a snapshot per drain uploads about %d", total, whole)
	}
}

// splitDecoded is splitRootFrame with the delta decoded, as a read that
// follows the root decodes it.
func splitDecoded(data []byte) ([]byte, rootTrailer, bool) {
	sealed, t, entries, framed := splitRootFrame(data)
	t.delta = decodeDelta(entries)
	return sealed, t, framed
}
