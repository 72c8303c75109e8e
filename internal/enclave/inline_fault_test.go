package enclave_test

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"nexus/internal/backend"
	"nexus/internal/enclave"
	"nexus/internal/merkle"
	"nexus/internal/metadata"
	"nexus/internal/uuid"
	"nexus/internal/vfs"
)

// dyingStore is a client's proof store that, once armed, fails its k-th
// ocall from then on and every one after it: the store dying at that point.
type dyingStore struct {
	enclave.FreshnessProofStore

	mu    sync.Mutex
	calls int
	dieAt int // -1: alive
}

func (s *dyingStore) arm(k int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls, s.dieAt = 0, k
}

func (s *dyingStore) disarm() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dieAt = -1
}

func (s *dyingStore) tick() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dieAt >= 0 && s.calls >= s.dieAt {
		return backend.ErrUnavailable
	}
	s.calls++
	return nil
}

func (s *dyingStore) GetVersioned(name string) ([]byte, uint64, error) {
	if err := s.tick(); err != nil {
		return nil, 0, err
	}
	return s.FreshnessProofStore.GetVersioned(name)
}

func (s *dyingStore) PutVersioned(name string, data []byte) (uint64, error) {
	if err := s.tick(); err != nil {
		return 0, err
	}
	return s.FreshnessProofStore.PutVersioned(name, data)
}

func (s *dyingStore) Delete(name string) error {
	if err := s.tick(); err != nil {
		return err
	}
	return s.FreshnessProofStore.Delete(name)
}

func (s *dyingStore) Lock(name string) (func(), error) {
	if err := s.tick(); err != nil {
		return nil, err
	}
	return s.FreshnessProofStore.Lock(name)
}

func (s *dyingStore) FreshnessProof(id uuid.UUID, epoch uint64) ([]byte, error) {
	if err := s.tick(); err != nil {
		return nil, err
	}
	return s.FreshnessProofStore.FreshnessProof(id, epoch)
}

func (s *dyingStore) FreshnessUpdate(epoch uint64, updates []merkle.LeafUpdate) ([][]byte, error) {
	if err := s.tick(); err != nil {
		return nil, err
	}
	return s.FreshnessProofStore.FreshnessUpdate(epoch, updates)
}

// dataObjects lists the UUID-named objects on the backing store that are
// not sealed metadata: file data objects.
func (v *commitVolume) dataObjects(t *testing.T) []string {
	t.Helper()
	names, err := v.mem.List("")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, name := range names {
		blob, _ := v.mem.Get(name)
		if _, err := metadata.PeekPreamble(blob); err != nil && len(name) == 2*uuid.Size {
			out = append(out, name)
		}
	}
	return out
}

// TestRewriteChunkedToInlineFaultSweep kills the store at every store call
// of a warm read, a rewrite that moves a file from a data object into its
// filenode, and the drain that follows. The read fetches the root, /d and
// the filenode in one batched ocall, so the first kill points land inside
// it, between one get and the next: the read fails with
// ErrStoreUnavailable and, once the store is back, reads the old content.
// Whatever the store holds then, a restarted client
// reads the old content or the new — never a tampered filenode, never one
// naming a data object that is gone — and so it does after the writer's
// next drain, which runs whatever the failed attempt staged. That drain
// (and, if the write failed, the write again) converges on the new content
// with the old data object deleted.
func TestRewriteChunkedToInlineFaultSweep(t *testing.T) {
	old, small := bytes.Repeat([]byte("old "), 16<<10), []byte("new, inline")
	for k := 0; ; k++ {
		v, _, _ := newCommitVolume(t)
		container, err := v.plat.CreateEnclave(rollbackImage)
		if err != nil {
			t.Fatal(err)
		}
		store := &dyingStore{FreshnessProofStore: vfs.NewFreshnessStore(v.shared), dieAt: -1}
		e, err := enclave.New(enclave.Config{SGX: container, Store: store, IAS: v.ias})
		if err != nil {
			t.Fatal(err)
		}
		v.mount(t, e)
		if err := e.Mkdir("/d"); err != nil {
			t.Fatal(err)
		}
		if err := e.Touch("/d/f"); err != nil {
			t.Fatal(err)
		}
		if err := e.WriteFile("/d/f", old); err != nil {
			t.Fatal(err)
		}
		if err := e.SyncMetadata(); err != nil {
			t.Fatal(err)
		}
		if n := len(v.dataObjects(t)); n != 1 {
			t.Fatalf("%d data objects before the rewrite, want 1", n)
		}

		store.arm(k)
		_, rerr := e.ReadFile("/d/f")
		werr := e.WriteFile("/d/f", small)
		serr := e.SyncMetadata()
		store.disarm()
		converged := func() {
			t.Helper()
			fresh, _ := v.client(t)
			if got, err := fresh.ReadFile("/d/f"); err != nil || !bytes.Equal(got, small) {
				t.Fatalf("k=%d: a restarted client reads %q, %v; want the new content", k, got, err)
			}
			if left := v.dataObjects(t); len(left) != 0 {
				t.Fatalf("k=%d: the old data object outlived the drain: %v", k, left)
			}
		}
		if rerr == nil && werr == nil && serr == nil {
			if k == 0 {
				t.Fatal("a store dead from the first ocall did not fail the rewrite")
			}
			converged()
			t.Logf("swept a store dying at each of %d store calls", k)
			break
		}
		for _, err := range []error{rerr, werr, serr} {
			if err != nil && !errors.Is(err, enclave.ErrStoreUnavailable) {
				t.Fatalf("k=%d: rewrite failed with %v, want ErrStoreUnavailable", k, err)
			}
		}
		if rerr != nil {
			if got, err := e.ReadFile("/d/f"); err != nil || !bytes.Equal(got, old) {
				t.Fatalf("k=%d: retried read = %d bytes, %v; want the old content", k, len(got), err)
			}
		}

		// As the store was left, and once the writer's drain has run on it
		// again, with whatever that drain had staged.
		readable := func(when string) {
			t.Helper()
			fresh, _ := v.client(t)
			got, err := fresh.ReadFile("/d/f")
			if err != nil {
				t.Fatalf("k=%d, %s: a restarted client cannot read the file: %v", k, when, err)
			}
			if !bytes.Equal(got, old) && !bytes.Equal(got, small) {
				t.Fatalf("k=%d, %s: a restarted client reads %d bytes that are neither version", k, when, len(got))
			}
		}
		readable("after the fault")
		if err := e.SyncMetadata(); err != nil {
			t.Fatalf("k=%d: drain once the store is back: %v", k, err)
		}
		readable("after the next drain")

		if werr != nil {
			if err := e.WriteFile("/d/f", small); err != nil {
				t.Fatalf("k=%d: retried write: %v", k, err)
			}
			if err := e.SyncMetadata(); err != nil {
				t.Fatalf("k=%d: drain after the retried write: %v", k, err)
			}
		}
		converged()
		if k > 100 {
			t.Fatal("fault sweep did not terminate")
		}
	}
}
