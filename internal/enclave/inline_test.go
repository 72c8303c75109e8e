package enclave

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"

	"nexus/internal/backend"
	"nexus/internal/metadata"
	"nexus/internal/uuid"
)

// failNextPutStore fails the next put of any object but the freshness
// root, once armed, with the backend's unavailability error.
type failNextPutStore struct {
	*memObjectStore
	armed atomic.Bool
}

func (s *failNextPutStore) PutVersioned(name string, data []byte) (uint64, error) {
	if name != MerkleRootObjectName && s.armed.CompareAndSwap(true, false) {
		return 0, backend.ErrUnavailable
	}
	return s.memObjectStore.PutVersioned(name, data)
}

// sized returns n bytes of content that start with tag, so contents of
// equal length still differ.
func sized(tag string, n int) []byte {
	out := bytes.Repeat([]byte{'.'}, n)
	copy(out, tag)
	return out
}

// fileEntryLocked resolves the file at path to its filenode's UUID and
// its directory's.
func fileEntryLocked(t *testing.T, e *Enclave, path string) (id, dir uuid.UUID) {
	t.Helper()
	dirs, name, err := splitPath(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := e.walkDirLocked(dirs)
	if err != nil {
		t.Fatal(err)
	}
	entry, err := e.lookupEntryLocked(w.dir, name, path)
	if err != nil {
		t.Fatal(err)
	}
	return entry.UUID, w.dir.UUID
}

// filenodeOf loads the filenode of the file at path as the enclave sees
// it (the dirty copy of a pending create, else the store's).
func filenodeOf(t *testing.T, e *Enclave, path string) *metadata.Filenode {
	t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()
	f, _, err := e.loadFilenode(fileEntryLocked(t, e, path))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestPendingCreateFailedUploadLeavesFileReadable: a write to a created
// file the store has not seen yet fails its data upload. The filenode the
// next drain seals must be the one from before the write — not one naming
// a data object that was never written, which no read could ever open.
func TestPendingCreateFailedUploadLeavesFileReadable(t *testing.T) {
	store := &failNextPutStore{memObjectStore: newMemObjectStore()}
	owner := newIdentity(t, "owen")
	env := newWbEnv(t, owner, Config{Store: store})
	e := env.enclave
	if err := e.Touch("/f"); err != nil {
		t.Fatal(err)
	}
	store.armed.Store(true)
	payload := sized("lost", 64<<10)
	if err := e.WriteFile("/f", payload); !errors.Is(err, ErrStoreUnavailable) {
		t.Fatalf("WriteFile with a failing upload = %v, want ErrStoreUnavailable", err)
	}
	if err := e.SyncMetadata(); err != nil {
		t.Fatal(err)
	}
	e.DropCaches()
	for name, reader := range map[string]*Enclave{"writer": e, "fresh mount": env.freshEnclave(t, store)} {
		if got, err := reader.ReadFile("/f"); err != nil || len(got) != 0 {
			t.Fatalf("%s: ReadFile after the failed write = %d bytes, %v; want the empty file", name, len(got), err)
		}
	}
	if err := e.WriteFile("/f", payload); err != nil {
		t.Fatal(err)
	}
	if got, err := env.freshEnclave(t, store).ReadFile("/f"); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("retried write reads back %d bytes, %v", len(got), err)
	}
}

// TestInlineFileIsOneObject follows one file's objects across its layouts:
// content of at most metadata.MaxInlineSize bytes lives in the filenode,
// a rewrite past the cap adds a data object, a rewrite back under it
// deletes that object at the next drain, and the final remove leaves
// nothing. While a create is pending its inline bytes are pinned enclave
// memory, charged with the dirty filenode.
func TestInlineFileIsOneObject(t *testing.T) {
	store := newMemObjectStore()
	owner := newIdentity(t, "owen")
	env := newWbEnv(t, owner, Config{Store: store})
	e := env.enclave
	objects := func() int { return store.mem.Size() }
	sync := func() {
		t.Helper()
		if err := e.SyncMetadata(); err != nil {
			t.Fatal(err)
		}
	}
	base := objects()

	if err := e.Touch("/f"); err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	bytesBefore := e.wb.bytes
	e.mu.Unlock()
	full := sized("full page", metadata.MaxInlineSize)
	if err := e.WriteFile("/f", full); err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	id, _ := fileEntryLocked(t, e, "/f")
	n := e.wb.nodes[id]
	charged, grew := n.charged, e.wb.bytes-bytesBefore
	e.mu.Unlock()
	if charged != estFilenodeEPC+metadata.MaxInlineSize || grew != metadata.MaxInlineSize {
		t.Fatalf("pending inline create charged %d EPC bytes and grew the batch by %d; want %d and %d",
			charged, grew, estFilenodeEPC+metadata.MaxInlineSize, metadata.MaxInlineSize)
	}
	sync()
	if got := objects() - base; got != 1 {
		t.Fatalf("a file of %d bytes is %d store objects, want 1", len(full), got)
	}

	over := sized("one byte over", metadata.MaxInlineSize+1)
	if err := e.WriteFile("/f", over); err != nil {
		t.Fatal(err)
	}
	sync()
	if got := objects() - base; got != 2 {
		t.Fatalf("a file of %d bytes is %d store objects, want 2", len(over), got)
	}
	chunked := filenodeOf(t, e, "/f")

	if err := e.WriteFile("/f", []byte("small again")); err != nil {
		t.Fatal(err)
	}
	sync()
	if got := objects() - base; got != 1 {
		t.Fatalf("after a rewrite under the cap the file is %d store objects, want 1", got)
	}
	if _, _, err := store.GetVersioned(objName(chunked.DataUUID)); !errors.Is(err, backend.ErrNotExist) {
		t.Fatalf("old data object after the rewrite: %v, want it deleted", err)
	}
	e.DropCaches()
	if got, err := e.ReadFile("/f"); err != nil || string(got) != "small again" {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
	if err := e.Remove("/f"); err != nil {
		t.Fatal(err)
	}
	sync()
	if got := objects() - base; got != 0 {
		t.Fatalf("removed inline file left %d store objects", got)
	}
}

// TestRewriteAcrossCapDrawsFreshDataUUID rewrites two files chunked →
// inline → chunked inside one drain window, as pending creates and as
// files the store holds. Each inline rewrite stages the delete of the
// file's first data object; each second chunked rewrite must upload under a
// name of its own — neither that one, which the drain deletes, nor one the
// other file uses.
func TestRewriteAcrossCapDrawsFreshDataUUID(t *testing.T) {
	for _, onStore := range []bool{false, true} {
		store := newMemObjectStore()
		owner := newIdentity(t, "owen")
		env := newWbEnv(t, owner, Config{Store: store})
		e := env.enclave
		paths := []string{"/a", "/b"}
		write := func(tag string, size int) {
			t.Helper()
			for _, p := range paths {
				if err := e.WriteFile(p, sized(tag+p, size)); err != nil {
					t.Fatalf("on store %v: %v", onStore, err)
				}
			}
		}
		for _, p := range paths {
			if err := e.Touch(p); err != nil {
				t.Fatal(err)
			}
		}
		write("first", 64<<10)
		if onStore {
			if err := e.SyncMetadata(); err != nil {
				t.Fatal(err)
			}
		}
		write("inline", 16)
		write("last", 64<<10)
		if err := e.SyncMetadata(); err != nil {
			t.Fatal(err)
		}
		e.DropCaches()
		for name, reader := range map[string]*Enclave{"writer": e, "fresh mount": env.freshEnclave(t, store)} {
			for _, p := range paths {
				if got, err := reader.ReadFile(p); err != nil || !bytes.Equal(got, sized("last"+p, 64<<10)) {
					t.Fatalf("on store %v, %s: ReadFile(%s) = %d bytes, %v; want the last write", onStore, name, p, len(got), err)
				}
			}
		}
	}
}
