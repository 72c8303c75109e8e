package vfs

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"nexus/internal/backend"
	"nexus/internal/enclave"
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

// getCounter counts the reads that reach the backing store.
type getCounter struct {
	backend.Store
	gets atomic.Int64
}

func (c *getCounter) Get(name string) ([]byte, error) {
	c.gets.Add(1)
	return c.Store.Get(name)
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
// fetches every directory on a path on every operation only to compare
// versions. Such a fetch of a dirnode nobody has written since must not
// read the backing store again, and must return exactly what it holds;
// everything else — buckets, filenodes, file contents — is read every
// time.
func TestVersionedStoreRevalidatesDirnodesWithoutReading(t *testing.T) {
	mem := &getCounter{Store: backend.NewMemStore()}
	s := NewVersionedStore(mem)
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
		got[0] ^= 0xff // the caller owns what it was given
		return v
	}

	// Written through this adapter: no read at all.
	first := sealedObject(t, metadata.TypeDirnode, 1, "first")
	if _, err := s.PutVersioned("dir", first); err != nil {
		t.Fatal(err)
	}
	v1 := get("dir", first, 0)
	if v := get("dir", first, 0); v != v1 {
		t.Fatalf("version moved without a put: %d then %d", v1, v)
	}
	// Rewritten: the new bytes, a new version, still no read.
	second := sealedObject(t, metadata.TypeDirnode, 2, "second, longer")
	if _, err := s.PutVersioned("dir", second); err != nil {
		t.Fatal(err)
	}
	if v := get("dir", second, 0); v <= v1 {
		t.Fatalf("version did not increase: %d then %d", v1, v)
	}
	// Already on the store when the adapter was made (a remount): read
	// once, then kept.
	s = NewVersionedStore(mem)
	get("dir", second, 1)
	get("dir", second, 0)
	// Deleted: gone, not served from what was kept.
	if err := s.Delete("dir"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.GetVersioned("dir"); !errors.Is(err, backend.ErrNotExist) {
		t.Fatalf("GetVersioned after Delete = %v, want ErrNotExist", err)
	}
	for name, blob := range map[string][]byte{
		"bucket":   sealedObject(t, metadata.TypeDirBucket, 1, "entries"),
		"filenode": sealedObject(t, metadata.TypeFilenode, 1, "keys"),
		"data":     bytes.Repeat([]byte{0x5a}, 4096),
	} {
		if _, err := s.PutVersioned(name, blob); err != nil {
			t.Fatal(err)
		}
		get(name, blob, 1)
		get(name, blob, 1)
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

func TestWalk(t *testing.T) {
	fs := newTestFS(t)
	for _, p := range []string{"/w/a", "/w/b/c"} {
		if err := fs.MkdirAll(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range []string{"/w/f1", "/w/a/f2", "/w/b/c/f3"} {
		if err := fs.WriteFile(f, []byte(f)); err != nil {
			t.Fatal(err)
		}
	}
	var visited []string
	err := fs.Walk("/w", func(p string, entry DirEntry) error {
		visited = append(visited, p)
		return nil
	})
	if err != nil {
		t.Fatalf("Walk: %v", err)
	}
	want := []string{"/w", "/w/a", "/w/a/f2", "/w/b", "/w/b/c", "/w/b/c/f3", "/w/f1"}
	if len(visited) != len(want) {
		t.Fatalf("Walk visited %v, want %v", visited, want)
	}
	for i := range want {
		if visited[i] != want[i] {
			t.Fatalf("Walk order %v, want %v", visited, want)
		}
	}
}

func TestFileHandleReadWrite(t *testing.T) {
	fs := newTestFS(t)
	f, err := fs.Open("/file", O_RDWR|O_CREATE)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := f.Write([]byte("hello world")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen and read.
	f, err = fs.Open("/file", O_RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(f)
	if err != nil || string(got) != "hello world" {
		t.Fatalf("ReadAll = %q, %v", got, err)
	}
	// Seek and partial read.
	if _, err := f.Seek(6, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if n, err := f.Read(buf); err != nil || n != 5 || string(buf) != "world" {
		t.Fatalf("Read after Seek = %q, %d, %v", buf, n, err)
	}
	if _, err := f.Read(buf); !errors.Is(err, io.EOF) {
		t.Fatalf("Read at EOF = %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFileHandleOpenSemantics(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.WriteFile("/f", []byte("original")); err != nil {
		t.Fatal(err)
	}

	// O_TRUNC discards contents.
	f, err := fs.Open("/f", O_RDWR|O_TRUNC)
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != 0 {
		t.Fatalf("Size after O_TRUNC = %d", f.Size())
	}
	if _, err := f.Write([]byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// O_APPEND starts at EOF.
	f, err = fs.Open("/f", O_RDWR|O_APPEND)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("+more")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/f")
	if err != nil || string(got) != "new+more" {
		t.Fatalf("after append = %q, %v", got, err)
	}

	// Missing file without O_CREATE.
	if _, err := fs.Open("/missing", O_RDONLY); !errors.Is(err, enclave.ErrNotFound) {
		t.Fatalf("Open missing = %v", err)
	}
	// Read-only handle rejects writes.
	f, err = fs.Open("/f", O_RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("x")); err == nil {
		t.Fatal("write on O_RDONLY handle accepted")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFileHandleSyncVisibility(t *testing.T) {
	fs := newTestFS(t)
	f, err := fs.Open("/db.log", O_RDWR|O_CREATE)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("record1")); err != nil {
		t.Fatal(err)
	}
	// Before Sync the store holds the old (empty) contents.
	got, err := fs.ReadFile("/db.log")
	if err != nil || len(got) != 0 {
		t.Fatalf("pre-sync read = %q, %v", got, err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	got, err = fs.ReadFile("/db.log")
	if err != nil || string(got) != "record1" {
		t.Fatalf("post-sync read = %q, %v", got, err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFileHandleTruncateAndReadAt(t *testing.T) {
	fs := newTestFS(t)
	f, err := fs.Open("/f", O_RDWR|O_CREATE)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(4); err != nil {
		t.Fatal(err)
	}
	if f.Size() != 4 {
		t.Fatalf("Size after truncate = %d", f.Size())
	}
	if err := f.Truncate(8); err != nil { // zero-extend
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := f.ReadAt(buf, 2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, []byte{'2', '3', 0, 0}) {
		t.Fatalf("ReadAt = %v", buf)
	}
	if _, err := f.ReadAt(buf, 100); !errors.Is(err, io.EOF) {
		t.Fatalf("ReadAt past EOF = %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// Operations on closed handles fail cleanly.
	if _, err := f.Read(buf); err == nil {
		t.Fatal("read of closed handle accepted")
	}
	if err := f.Close(); err != nil {
		t.Fatalf("double close = %v", err)
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
