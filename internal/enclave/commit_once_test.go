// Tests of the single-commit write path (DESIGN.md §12.4, §15.2): a
// drain that commits only the freshness records its caller queued stages
// its freshness update with the root re-read, a re-read of the sealed root this enclave last put or opened
// skips the open, and a durable overwrite made while other metadata is
// pending commits once, with the drain.
package enclave_test

import (
	"bytes"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"nexus/internal/backend"
	"nexus/internal/enclave"
	"nexus/internal/freshtree"
	"nexus/internal/merkle"
	"nexus/internal/metadata"
	"nexus/internal/vfs"
)

// updateLog records the outcome of each FreshnessUpdate one enclave makes,
// and can serve a chosen sealed root in place of the store's.
type updateLog struct {
	enclave.FreshnessProofStore

	mu       sync.Mutex
	updates  []error
	lastRoot []byte // the sealed root the last read of it returned
	serve    []byte // when set, what a read of the root returns
}

func (s *updateLog) FreshnessUpdate(epoch uint64, batch []merkle.LeafUpdate) ([][]byte, error) {
	proofs, err := s.FreshnessProofStore.FreshnessUpdate(epoch, batch)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.updates = append(s.updates, err)
	return proofs, err
}

func (s *updateLog) GetVersioned(name string) ([]byte, uint64, error) {
	blob, version, err := s.FreshnessProofStore.GetVersioned(name)
	if name != enclave.MerkleRootObjectName || err != nil {
		return blob, version, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.serve != nil {
		return bytes.Clone(s.serve), version, nil
	}
	s.lastRoot = bytes.Clone(blob)
	return blob, version, nil
}

// take returns the updates logged since the last take.
func (s *updateLog) take() []error {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.updates
	s.updates = nil
	return out
}

// loggedClient mounts the volume on an enclave whose store is log over its
// own adapter: the volume's other clients share one adapter, so this one
// sees their puts only through the backing store.
func (v *commitVolume) loggedClient(t *testing.T) (*enclave.Enclave, *updateLog) {
	t.Helper()
	container, err := v.plat.CreateEnclave(rollbackImage)
	if err != nil {
		t.Fatal(err)
	}
	log := &updateLog{FreshnessProofStore: freshtree.New(vfs.NewVersionedStore(v.mem))}
	e, err := enclave.New(enclave.Config{SGX: container, Store: log, IAS: v.ias})
	if err != nil {
		t.Fatal(err)
	}
	v.mount(t, e)
	return e, log
}

// TestStagedUpdatePeerCommitBetween: an overwrite's commit stages its
// freshness update with the root re-read, at the epoch this enclave last
// saw. A peer commit through another adapter lands between two such
// commits: the second re-read finds the peer's root — other bytes than the
// ones this enclave put, so the full open and epoch checks run — and the
// staged update, made at the old epoch, is refused by the store, discarded
// and made again at the new one. Both writes survive, and the root ends
// one epoch past the peer's.
func TestStagedUpdatePeerCommitBetween(t *testing.T) {
	v, peer, _ := newCommitVolume(t)
	e, log := v.loggedClient(t)
	if err := e.SaveFile("/f", []byte("created"), true); err != nil {
		t.Fatal(err)
	}
	if err := e.SaveFile("/f", []byte("first"), false); err != nil {
		t.Fatal(err)
	}
	if got := log.take(); len(got) != 2 || got[0] != nil || got[1] != nil {
		t.Fatalf("create and first overwrite: updates %v, want the drain's and one staged", got)
	}

	if err := peer.SaveFile("/g", []byte("peer"), true); err != nil {
		t.Fatal(err)
	}
	peerEpoch, _, _ := peer.FreshnessEpoch()

	log.take()
	if err := e.SaveFile("/f", []byte("second"), false); err != nil {
		t.Fatalf("overwrite after the peer's commit: %v", err)
	}
	got := log.take()
	if len(got) != 2 || got[0] == nil || got[1] != nil {
		t.Fatalf("overwrite after the peer's commit: updates %v, want a refused staged one and one made again", got)
	}
	if epoch, _, _ := e.FreshnessEpoch(); epoch != peerEpoch+1 {
		t.Fatalf("root at epoch %d after the peer's %d, want one past it", epoch, peerEpoch)
	}

	reader, _ := v.client(t)
	for path, want := range map[string]string{"/f": "second", "/g": "peer"} {
		if got, err := reader.ReadFile(path); err != nil || string(got) != want {
			t.Fatalf("%s = %q, %v; want %q", path, got, err, want)
		}
	}
}

// lyingUpdates answers a FreshnessUpdate the store refuses — one staged
// at an epoch a peer's commit has moved past — with the proofs of the
// tree at that epoch, as a store that ignores the epoch would. It draws
// them from a proof service over a copy of the store taken at that epoch.
type lyingUpdates struct {
	enclave.FreshnessProofStore

	mu   sync.Mutex
	old  enclave.FreshnessProofStore // nil: every refusal stands
	lies int
}

func (s *lyingUpdates) FreshnessUpdate(epoch uint64, batch []merkle.LeafUpdate) ([][]byte, error) {
	proofs, err := s.FreshnessProofStore.FreshnessUpdate(epoch, batch)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err == nil || s.old == nil {
		return proofs, err
	}
	s.lies++
	return s.old.FreshnessUpdate(epoch, batch)
}

// lie sets the proof service refusals are answered from (nil: none) and
// returns how many refusals it has answered so far.
func (s *lyingUpdates) lie(old enclave.FreshnessProofStore) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.old = old
	return s.lies
}

// copyStore returns a backing store holding what mem holds now.
func copyStore(t *testing.T, mem *backend.MemStore) *backend.MemStore {
	t.Helper()
	names, err := mem.List("")
	if err != nil {
		t.Fatal(err)
	}
	out := backend.NewMemStore()
	for _, name := range names {
		data, err := mem.Get(name)
		if err == nil {
			err = out.Put(name, data)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestStagedUpdateLyingStoreFailsClosed: the staged freshness update is
// used whenever the store made it — the enclave does not compare its epoch
// or batch with the re-read's. An honest store refuses an update staged at
// an epoch a peer's commit has moved past (TestStagedUpdatePeerCommitBetween);
// one that accepts it and answers with the proofs of the tree at that
// epoch is caught by the fold: the commit fails closed with ErrBadProof,
// and the store's sealed root does not move. The next commit, through the
// honest store, converges, carrying the failed commit's update with its
// own.
func TestStagedUpdateLyingStoreFailsClosed(t *testing.T) {
	v, peer, _ := newCommitVolume(t)
	container, err := v.plat.CreateEnclave(rollbackImage)
	if err != nil {
		t.Fatal(err)
	}
	store := &lyingUpdates{FreshnessProofStore: freshtree.New(vfs.NewVersionedStore(v.mem))}
	e, err := enclave.New(enclave.Config{SGX: container, Store: store, IAS: v.ias})
	if err != nil {
		t.Fatal(err)
	}
	v.mount(t, e)
	if err := e.SaveFile("/f", []byte("created"), true); err != nil {
		t.Fatal(err)
	}
	if err := e.SaveFile("/f", []byte("first"), false); err != nil {
		t.Fatal(err)
	}
	old := freshtree.New(vfs.NewVersionedStore(copyStore(t, v.mem)))

	if err := peer.SaveFile("/g", []byte("peer"), true); err != nil {
		t.Fatal(err)
	}
	peerEpoch, _, _ := peer.FreshnessEpoch()
	root, err := v.mem.Get(enclave.MerkleRootObjectName)
	if err != nil {
		t.Fatal(err)
	}

	store.lie(old)
	if err := e.SaveFile("/f", []byte("second"), false); !errors.Is(err, enclave.ErrBadProof) {
		t.Fatalf("commit over the stale epoch's proofs: %v, want ErrBadProof", err)
	}
	if lies := store.lie(nil); lies != 1 {
		t.Fatalf("the store lied %d times, want once: the staged update", lies)
	}
	if after, err := v.mem.Get(enclave.MerkleRootObjectName); err != nil || !bytes.Equal(after, root) {
		t.Fatalf("the store's sealed root moved under a failed commit (%v)", err)
	}

	if err := e.SyncMetadata(); err != nil {
		t.Fatalf("the next commit through the honest store: %v", err)
	}
	if epoch, _, _ := e.FreshnessEpoch(); epoch != peerEpoch+1 {
		t.Fatalf("root at epoch %d after the peer's %d, want one past it", epoch, peerEpoch)
	}
	reader, _ := v.client(t)
	for path, want := range map[string]string{"/f": "second", "/g": "peer"} {
		if got, err := reader.ReadFile(path); err != nil || string(got) != want {
			t.Fatalf("%s = %q, %v; want %q", path, got, err, want)
		}
	}
}

// TestRootMemoRejectsOwnOlderRoot: the root memo holds only the sealed
// root this enclave put last. A store that serves an older root of this
// enclave's own — bytes it once put and read back — is still caught by the
// epoch check.
func TestRootMemoRejectsOwnOlderRoot(t *testing.T) {
	v, _, _ := newCommitVolume(t)
	e, log := v.loggedClient(t)
	if err := e.SaveFile("/f", []byte("one"), true); err != nil {
		t.Fatal(err)
	}
	if err := e.SaveFile("/f", []byte("two"), false); err != nil {
		t.Fatal(err)
	}
	// The next commit's re-read returns the root the last one put.
	if err := e.SaveFile("/f", []byte("three"), false); err != nil {
		t.Fatal(err)
	}
	log.mu.Lock()
	old := log.lastRoot
	log.serve = old
	log.mu.Unlock()
	if old == nil {
		t.Fatal("no root was read")
	}
	if err := e.SaveFile("/f", []byte("four"), false); !errors.Is(err, enclave.ErrStaleObject) {
		t.Fatalf("commit over this enclave's own older root: %v, want ErrStaleObject", err)
	}
}

// TestMergedOverwriteHoldsFilenodeLock: a durable overwrite made while a
// remove waits is one commit with the drain, and the filenode's lock is
// held until that commit's root put. A peer's write of the same file,
// started the moment the filenode is put and given until the root's put
// to run, cannot put its own filenode in between: its leaf would then
// fall behind the object it names (DESIGN.md §15.2).
func TestMergedOverwriteHoldsFilenodeLock(t *testing.T) {
	v, e, hooks := newCommitVolume(t)
	peer, peerHooks := v.client(t)
	for _, p := range []string{"/f", "/g"} {
		if err := e.SaveFile(p, []byte("old "+p), true); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Remove("/g"); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var events []string
	note := func(ev string) {
		mu.Lock()
		defer mu.Unlock()
		events = append(events, ev)
	}
	var once sync.Once
	var peerErr error
	done := make(chan struct{})
	hooks.setHook(func(op, name string, data []byte) {
		if op != "put" {
			return
		}
		if name == enclave.MerkleRootObjectName {
			// The peer gets as far as it can before the root's put.
			waitOrTimeout(done, 100*time.Millisecond)
			note("root put")
			return
		}
		if p, err := metadata.PeekPreamble(data); err != nil || p.Type != metadata.TypeFilenode {
			return
		}
		note("filenode put")
		once.Do(func() {
			go func() {
				defer close(done)
				peerErr = peer.SaveFile("/f", []byte("peer"), false)
			}()
			waitOrTimeout(done, 100*time.Millisecond)
		})
	})
	peerHooks.setHook(func(op, _ string, data []byte) {
		if p, err := metadata.PeekPreamble(data); op == "put" && err == nil && p.Type == metadata.TypeFilenode {
			note("peer filenode put")
		}
	})
	if err := e.SaveFile("/f", []byte("new"), false); err != nil {
		t.Fatal(err)
	}
	<-done
	hooks.setHook(nil)
	peerHooks.setHook(nil)
	if peerErr != nil {
		t.Fatalf("peer's write: %v", peerErr)
	}
	want := []string{"filenode put", "root put", "peer filenode put"}
	mu.Lock()
	got := events
	mu.Unlock()
	if !slices.Equal(got, want) {
		t.Fatalf("events %v, want %v", got, want)
	}

	reader, _ := v.client(t)
	if got, err := reader.ReadFile("/f"); err != nil || string(got) != "peer" {
		t.Fatalf("/f = %q, %v; want the peer's write", got, err)
	}
	if _, err := reader.Lookup("/g"); !errors.Is(err, enclave.ErrNotFound) {
		t.Fatalf("/g after the merged commit: %v, want ErrNotFound", err)
	}
}

// failFilenodePut fails the next put of a filenode once, as a store that
// drops one request would.
type failFilenodePut struct {
	enclave.FreshnessProofStore

	mu    sync.Mutex
	armed bool
}

func (s *failFilenodePut) PutVersioned(name string, data []byte) (uint64, error) {
	s.mu.Lock()
	p, err := metadata.PeekPreamble(data)
	fail := s.armed && err == nil && p.Type == metadata.TypeFilenode
	if fail {
		s.armed = false
	}
	s.mu.Unlock()
	if fail {
		return 0, backend.ErrUnavailable
	}
	return s.FreshnessProofStore.PutVersioned(name, data)
}

// TestMergedOverwriteFailedFilenodePut: the merged commit's filenode put
// leaves with the root re-read. When it fails, SaveFile fails: a retried
// drain would find the directory and the deletes still pending, commit
// them, and report the write durable without its filenode.
func TestMergedOverwriteFailedFilenodePut(t *testing.T) {
	v, _, _ := newCommitVolume(t)
	container, err := v.plat.CreateEnclave(rollbackImage)
	if err != nil {
		t.Fatal(err)
	}
	store := &failFilenodePut{FreshnessProofStore: freshtree.New(v.shared)}
	e, err := enclave.New(enclave.Config{SGX: container, Store: store, IAS: v.ias})
	if err != nil {
		t.Fatal(err)
	}
	v.mount(t, e)
	for _, p := range []string{"/f", "/g"} {
		if err := e.SaveFile(p, []byte("old"), true); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Remove("/g"); err != nil {
		t.Fatal(err)
	}
	store.mu.Lock()
	store.armed = true
	store.mu.Unlock()
	if err := e.SaveFile("/f", []byte("new"), false); !errors.Is(err, enclave.ErrStoreUnavailable) {
		t.Fatalf("overwrite with its filenode put dropped: %v, want ErrStoreUnavailable", err)
	}
	reader, _ := v.client(t)
	if got, err := reader.ReadFile("/f"); err != nil || string(got) != "old" {
		t.Fatalf("after the failed overwrite /f = %q, %v; want the old contents", got, err)
	}
	if err := e.SaveFile("/f", []byte("new"), false); err != nil {
		t.Fatalf("retry: %v", err)
	}
	reader, _ = v.client(t)
	if got, err := reader.ReadFile("/f"); err != nil || string(got) != "new" {
		t.Fatalf("after the retry /f = %q, %v; want the new contents", got, err)
	}
	if _, err := reader.Lookup("/g"); !errors.Is(err, enclave.ErrNotFound) {
		t.Fatalf("/g after the retry: %v, want ErrNotFound", err)
	}
}
