package vfs

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"nexus/internal/backend"
	"nexus/internal/enclave"
	"nexus/internal/freshtree"
	"nexus/internal/lendcheck"
	"nexus/internal/metadata"
	"nexus/internal/sgx"
	"nexus/internal/uuid"
)

// newTestFS builds a mounted FS over a memory store.
func newTestFS(t *testing.T) *FS {
	t.Helper()
	platform, err := sgx.NewPlatform(sgx.PlatformConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	container, err := platform.CreateEnclave(sgx.Image{Name: "nexus-enclave", Version: 1, Code: []byte("test")})
	if err != nil {
		t.Fatal(err)
	}
	store := NewVersionedStore(backend.NewMemStore())
	encl, err := enclave.New(enclave.Config{SGX: container, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := encl.CreateVolume("owner", pub)
	if err != nil {
		t.Fatal(err)
	}
	volID, err := encl.VolumeUUID()
	if err != nil {
		t.Fatal(err)
	}
	nonce, blob, err := encl.BeginAuth(pub, sealed, volID)
	if err != nil {
		t.Fatal(err)
	}
	msg := append(append([]byte(nil), nonce...), blob...)
	if err := encl.CompleteAuth(ed25519.Sign(priv, msg)); err != nil {
		t.Fatal(err)
	}
	return New(encl)
}

func TestVersionedStoreVersions(t *testing.T) {
	s := NewVersionedStore(backend.NewMemStore())
	if _, err := s.PutVersioned("a", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	_, v1, err := s.GetVersioned("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutVersioned("a", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	_, v2, err := s.GetVersioned("a")
	if err != nil {
		t.Fatal(err)
	}
	if v2 <= v1 {
		t.Fatalf("version did not increase: %d then %d", v1, v2)
	}
}

func TestVersionedStoreDeleteDropsVersion(t *testing.T) {
	s := NewVersionedStore(backend.NewMemStore())
	if _, err := s.PutVersioned("gone", []byte("bytes")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("gone"); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	_, tracked := s.versions["gone"]
	s.mu.Unlock()
	if tracked {
		t.Fatal("version counter survived Delete; the map would grow by one entry per deleted object")
	}
	// Recreation restarts versioning cleanly.
	v, err := s.PutVersioned("gone", []byte("bytes"))
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Fatalf("recreated object got version %d, want 1", v)
	}
}

// getCounter counts the reads that reach the backing store, and runs
// onGet, when set, after each.
type getCounter struct {
	backend.Store
	gets  atomic.Int64
	onGet func(name string)
}

func (c *getCounter) Get(name string) ([]byte, error) {
	c.gets.Add(1)
	data, err := c.Store.Get(name)
	if c.onGet != nil {
		c.onGet(name)
	}
	return data, err
}

// sealedObject is a sealed metadata object of the given type whose body
// tells two versions apart.
func sealedObject(t *testing.T, typ metadata.ObjType, version uint64, body string) []byte {
	t.Helper()
	rk, err := metadata.NewRootKey()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := metadata.Seal(rk, metadata.Preamble{Type: typ, UUID: uuid.UUID{1}, Version: version}, []byte(body))
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestVersionedStoreRevalidatesDirnodesWithoutReading: the enclave
// fetches every directory on a path, and the filenode it stats or reads,
// on every operation only to compare versions. Such a fetch of a dirnode
// or filenode nobody has written since must not read the backing store
// again, and must return exactly what it holds; buckets and file contents
// are read every time. A root at another sealed version than the one the
// adapter last put or read drops every kept copy, even when a write
// crossed its read. What a fetch returns is lent, read-only, capped at
// its length: a kept copy is handed out as it is, not copied.
func TestVersionedStoreRevalidatesDirnodesWithoutReading(t *testing.T) {
	lendcheck.Watch(t)
	mem := &getCounter{Store: backend.NewMemStore()}
	s := NewVersionedStore(mem)
	var last []byte // what the last fetch lent
	get := func(name string, want []byte, wantReads int64) uint64 {
		t.Helper()
		before := mem.gets.Load()
		got, v, err := s.GetVersioned(name)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("GetVersioned(%s) = %d bytes, %v; want the %d bytes stored", name, len(got), err, len(want))
		}
		if reads := mem.gets.Load() - before; reads != wantReads {
			t.Fatalf("GetVersioned(%s) read the backing store %d times, want %d", name, reads, wantReads)
		}
		if cap(got) != len(got) {
			t.Fatalf("GetVersioned(%s) lent %d bytes of capacity %d: an append would write into them", name, len(got), cap(got))
		}
		last = got
		return v
	}
	put := func(s *VersionedStore, name string, blob []byte) {
		t.Helper()
		if _, err := s.PutVersioned(name, blob); err != nil {
			t.Fatal(err)
		}
	}

	for _, typ := range []metadata.ObjType{metadata.TypeDirnode, metadata.TypeFilenode} {
		s = NewVersionedStore(mem)
		name := typ.String()
		// Written through this adapter: no read at all.
		first := sealedObject(t, typ, 1, "first")
		put(s, name, first)
		v1 := get(name, first, 0)
		lent := last
		if v := get(name, first, 0); v != v1 {
			t.Fatalf("%s: version moved without a put: %d then %d", name, v1, v)
		}
		if &lent[0] != &last[0] {
			t.Fatalf("%s: the kept copy was copied again, not lent", name)
		}
		// Rewritten: the new bytes, a new version, still no read.
		second := sealedObject(t, typ, 2, "second, longer")
		put(s, name, second)
		if v := get(name, second, 0); v <= v1 {
			t.Fatalf("%s: version did not increase: %d then %d", name, v1, v)
		}
		// Already on the store when the adapter was made (a remount): read
		// once, then kept.
		s = NewVersionedStore(mem)
		get(name, second, 1)
		lent = last
		get(name, second, 0)
		if &lent[0] != &last[0] {
			t.Fatalf("%s: the bytes read were kept as a second copy, not as read", name)
		}
		// Deleted: gone, not served from what was kept.
		if err := s.Delete(name); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.GetVersioned(name); !errors.Is(err, backend.ErrNotExist) {
			t.Fatalf("GetVersioned(%s) after Delete = %v, want ErrNotExist", name, err)
		}
	}
	for name, blob := range map[string][]byte{
		"bucket": sealedObject(t, metadata.TypeDirBucket, 1, "entries"),
		"data":   bytes.Repeat([]byte{0x5a}, 4096),
	} {
		put(s, name, blob)
		get(name, blob, 1)
		get(name, blob, 1)
	}

	// The root frame this adapter put, read back, keeps what it kept.
	dir := sealedObject(t, metadata.TypeDirnode, 1, "dir")
	fn := sealedObject(t, metadata.TypeFilenode, 1, "fn")
	mine := sealedObject(t, metadata.TypeFreshness, 1, "this adapter's root")
	put(s, "dir", dir)
	put(s, "fn", fn)
	put(s, freshtree.RootObjectName, mine)
	get(freshtree.RootObjectName, mine, 1)
	get("dir", dir, 0)
	get("fn", fn, 0)
	// A peer's root, read while a put through this adapter crosses the
	// read, drops every kept copy: each is read once more, then kept.
	peer := sealedObject(t, metadata.TypeFreshness, 2, "a peer's root")
	put(NewVersionedStore(mem), freshtree.RootObjectName, peer)
	mem.onGet = func(name string) {
		if name == freshtree.RootObjectName {
			put(s, "bucket", sealedObject(t, metadata.TypeDirBucket, 2, "crossing"))
		}
	}
	get(freshtree.RootObjectName, peer, 1)
	mem.onGet = nil
	s.mu.Lock()
	kept, keptBytes := len(s.kept), s.keptBytes
	s.mu.Unlock()
	if kept != 0 || keptBytes != 0 {
		t.Fatalf("after a peer's root the adapter keeps %d copies of %d bytes, want none", kept, keptBytes)
	}
	for name, blob := range map[string][]byte{"dir": dir, "fn": fn} {
		get(name, blob, 1)
		get(name, blob, 0)
	}
	get(freshtree.RootObjectName, peer, 1)
	get("dir", dir, 0)
}

// discardStore takes every put and keeps nothing.
type discardStore struct{ backend.Store }

func (discardStore) Put(string, []byte) error { return nil }

// TestVersionedStoreOverBudgetDropsFilenodes: past the kept budget the
// adapter drops kept filenodes, only as many as the new copy needs, and
// keeps its dirnodes, which every walk re-reads; dropping every copy
// would leave a working set above the budget nothing warm.
func TestVersionedStoreOverBudgetDropsFilenodes(t *testing.T) {
	s := NewVersionedStore(discardStore{backend.NewMemStore()})
	dir := sealedObject(t, metadata.TypeDirnode, 1, "dir")
	if _, err := s.PutVersioned("dir", dir); err != nil {
		t.Fatal(err)
	}
	// Inline-sized filenodes past the budget; 1 MiB each keeps the count
	// small.
	fn := sealedObject(t, metadata.TypeFilenode, 1, string(bytes.Repeat([]byte{'c'}, 1<<20)))
	const puts = keptBudget/(1<<20) + 8
	for i := range puts {
		if _, err := s.PutVersioned(fmt.Sprint("fn", i), fn); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	kept, keptBytes := len(s.kept), s.keptBytes
	_, dirKept := s.kept["dir"]
	_, lastKept := s.kept[fmt.Sprint("fn", puts-1)]
	s.mu.Unlock()
	if keptBytes > keptBudget {
		t.Fatalf("the adapter keeps %d bytes, over its budget of %d", keptBytes, keptBudget)
	}
	if !dirKept || !lastKept {
		t.Fatalf("over budget the dirnode is kept: %v, the newest filenode: %v; want both", dirKept, lastKept)
	}
	if want := keptBudget/cap(fn) - 1; kept-1 < want {
		t.Fatalf("over budget the adapter keeps %d filenodes, want at least %d: it drops only what the new copy needs", kept-1, want)
	}
}

// TestVersionedStoreReadsThroughUnderLock: two adapters over one backing
// store share its locks and nothing else. A fetch made while an adapter
// holds a store lock is the enclave's lock-then-re-read, so it must
// return what the peer put, not what this adapter kept; and a put made
// under the lock is what the adapter serves afterwards.
func TestVersionedStoreReadsThroughUnderLock(t *testing.T) {
	mem := backend.NewMemStore()
	a, b := NewVersionedStore(mem), NewVersionedStore(mem)
	put := func(s *VersionedStore, blob []byte) {
		t.Helper()
		release, err := s.Lock("dir")
		if err != nil {
			t.Fatal(err)
		}
		defer release()
		if got, _, err := s.GetVersioned("dir"); err != nil && !errors.Is(err, backend.ErrNotExist) {
			t.Fatal(err)
		} else if want, _ := mem.Get("dir"); !bytes.Equal(got, want) {
			t.Fatalf("a fetch under the lock returned %d bytes the backing store does not hold", len(got))
		}
		if _, err := s.PutVersioned("dir", blob); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		s := []*VersionedStore{a, b}[i%2]
		blob := sealedObject(t, metadata.TypeDirnode, uint64(i+1), fmt.Sprint("generation ", i))
		put(s, blob)
		if got, _, err := s.GetVersioned("dir"); err != nil || !bytes.Equal(got, blob) {
			t.Fatalf("round %d: the writer reads back bytes it did not write (%v)", i, err)
		}
	}
}

// yieldingStore yields the processor after each access, so the adapter's
// bookkeeping for one call runs after another call's access.
type yieldingStore struct{ backend.Store }

func (y yieldingStore) Get(name string) ([]byte, error) {
	defer runtime.Gosched()
	return y.Store.Get(name)
}

func (y yieldingStore) Put(name string, data []byte) error {
	defer runtime.Gosched()
	return y.Store.Put(name, data)
}

func (y yieldingStore) Delete(name string) error {
	defer runtime.Gosched()
	return y.Store.Delete(name)
}

// TestVersionedStoreKeptCopyTracksConcurrentWriters: writers, a deleter
// and a reader of one dirnode race through the adapter, round after
// round; whatever the interleaving, once a round's writers are done a
// fetch returns what the backing store holds.
func TestVersionedStoreKeptCopyTracksConcurrentWriters(t *testing.T) {
	const writers, rounds = 4, 300
	var blobs [writers][]byte
	for w := range blobs {
		blobs[w] = sealedObject(t, metadata.TypeDirnode, uint64(w), fmt.Sprint("writer ", w))
	}
	mem := backend.NewMemStore()
	s := NewVersionedStore(yieldingStore{mem})
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				switch {
				case w == 0 && round%4 == 3:
					if err := s.Delete("obj"); err != nil && !errors.Is(err, backend.ErrNotExist) {
						t.Error(err)
					}
				case w == 1:
					if _, _, err := s.GetVersioned("obj"); err != nil && !errors.Is(err, backend.ErrNotExist) {
						t.Error(err)
					}
				default:
					if _, err := s.PutVersioned("obj", blobs[w]); err != nil {
						t.Error(err)
					}
				}
			}()
		}
		close(start)
		wg.Wait()
		want, wantErr := mem.Get("obj")
		got, _, err := s.GetVersioned("obj")
		if !bytes.Equal(got, want) || errors.Is(err, backend.ErrNotExist) != errors.Is(wantErr, backend.ErrNotExist) {
			t.Fatalf("round %d: GetVersioned returns %d bytes, %v; the store holds %d bytes, %v", round, len(got), err, len(want), wantErr)
		}
	}
}

func TestMkdirAllAndRemoveAll(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.MkdirAll("/a/b/c/d"); err != nil {
		t.Fatalf("MkdirAll: %v", err)
	}
	// Idempotent.
	if err := fs.MkdirAll("/a/b/c/d"); err != nil {
		t.Fatalf("MkdirAll twice: %v", err)
	}
	if err := fs.WriteFile("/a/b/c/d/f1", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/a/b/x", []byte("2")); err != nil {
		t.Fatal(err)
	}

	if err := fs.RemoveAll("/a"); err != nil {
		t.Fatalf("RemoveAll: %v", err)
	}
	if ok, err := fs.Exists("/a"); err != nil || ok {
		t.Fatalf("Exists(/a) after RemoveAll = %v, %v", ok, err)
	}
	// Missing path is not an error.
	if err := fs.RemoveAll("/a"); err != nil {
		t.Fatalf("RemoveAll(missing): %v", err)
	}
}

func TestWriteFileCreates(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.WriteFile("/new.txt", []byte("created")); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := fs.ReadFile("/new.txt")
	if err != nil || string(got) != "created" {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
	// Overwrite.
	if err := fs.WriteFile("/new.txt", []byte("replaced")); err != nil {
		t.Fatal(err)
	}
	got, err = fs.ReadFile("/new.txt")
	if err != nil || string(got) != "replaced" {
		t.Fatalf("ReadFile after overwrite = %q, %v", got, err)
	}
}

func TestReadDirSorted(t *testing.T) {
	fs := newTestFS(t)
	for i := 9; i >= 0; i-- {
		if err := fs.WriteFile(fmt.Sprintf("/f%d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := fs.ReadDir("/")
	if err != nil || len(entries) != 10 {
		t.Fatalf("ReadDir = %d entries, %v", len(entries), err)
	}
	for i := 1; i < len(entries); i++ {
		if entries[i-1].Name >= entries[i].Name {
			t.Fatal("ReadDir not sorted")
		}
	}
}
