package enclave

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"nexus/internal/acl"
	"nexus/internal/backend"
	"nexus/internal/metadata"
	"nexus/internal/uuid"
)

// recordingStore records the names one enclave's GetVersioned calls ask
// for, in order, and can fail the reads of one name.
type recordingStore struct {
	ObjectStore

	mu   sync.Mutex
	gets []string
	fail string // a name whose reads fail as an unreachable store's
}

func (s *recordingStore) GetVersioned(name string) ([]byte, uint64, error) {
	s.mu.Lock()
	s.gets = append(s.gets, name)
	fail := name == s.fail
	s.mu.Unlock()
	if fail {
		return nil, 0, backend.ErrUnavailable
	}
	return s.ObjectStore.GetVersioned(name)
}

// recordGets puts a recordingStore between e and its store.
func recordGets(e *Enclave) *recordingStore {
	e.mu.Lock()
	defer e.mu.Unlock()
	rs := &recordingStore{ObjectStore: e.store}
	e.store = rs
	return rs
}

// crossings is what one operation cost: enclave entries and exits, and
// the store names it read.
type crossings struct {
	ecalls, ocalls int64
	gets           []string
}

func measure(e *Enclave, rs *recordingStore, op func()) crossings {
	ec, oc := e.sgx.EcallCount(), e.sgx.OcallCount()
	rs.mu.Lock()
	rs.gets = nil
	rs.mu.Unlock()
	op()
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return crossings{ecalls: e.sgx.EcallCount() - ec, ocalls: e.sgx.OcallCount() - oc, gets: rs.gets}
}

// storeChain names the objects a walk of path verifies, as the store's
// own bytes link them: the root dirnode, every directory on the path,
// then the last component's filenode when it is a file, and after that
// its data object when withData is set. It opens the sealed objects with
// the rootkey, independently of the enclave's walk and caches.
func storeChain(t *testing.T, e *Enclave, store *memObjectStore, path string, withData bool) []string {
	t.Helper()
	e.mu.Lock()
	rootKey, id := e.rootKey, e.super.RootDir
	e.mu.Unlock()
	open := func(id uuid.UUID) (metadata.Preamble, []byte) {
		t.Helper()
		blob, err := store.mem.Get(objName(id))
		if err != nil {
			t.Fatalf("chain of %s: %v", path, err)
		}
		p, body, err := metadata.Open(rootKey, blob)
		if err != nil {
			t.Fatalf("chain of %s: %v", path, err)
		}
		return p, body
	}
	names := []string{objName(id)}
	for _, name := range strings.FieldsFunc(path, func(r rune) bool { return r == '/' }) {
		p, body := open(id)
		d, err := metadata.DecodeDirnodeBody(id, p.Parent, body)
		if err != nil {
			t.Fatal(err)
		}
		entry, err := d.Lookup(name, func(int) (*metadata.Bucket, error) {
			return nil, errors.New("overflow bucket")
		})
		if err != nil {
			t.Fatalf("chain of %s at %q: %v", path, name, err)
		}
		if entry.Kind == metadata.KindSymlink {
			break
		}
		id = entry.UUID
		names = append(names, objName(id))
		if entry.Kind == metadata.KindFile {
			if withData {
				p, body := open(id)
				f, err := metadata.DecodeFilenodeBody(id, p.Parent, body)
				if err != nil {
					t.Fatal(err)
				}
				names = append(names, objName(f.DataUUID))
			}
			break
		}
	}
	return names
}

// peerEnclave mounts the volume as owner on a second enclave of env's
// platform over env's store: another client of the same volume.
func peerEnclave(t *testing.T, env *testEnv, owner identity, sealed []byte, volID uuid.UUID) *Enclave {
	t.Helper()
	container, err := env.platform.CreateEnclave(nexusImage)
	if err != nil {
		t.Fatal(err)
	}
	peer, err := New(Config{SGX: container, Store: env.store, IAS: env.ias, WritebackMaxOps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := authenticate(t, peer, owner, sealed, volID); err != nil {
		t.Fatal(err)
	}
	return peer
}

// TestWarmWalkOneOcall: a warm Stat, ReadDir or inline ReadFile is one
// ecall and one ocall at any depth, a chunked ReadFile one ecall and two
// ocalls, and the store is asked for exactly the objects the walk
// verifies, in walk order — the reads one ocall per object made.
func TestWarmWalkOneOcall(t *testing.T) {
	env, _, _ := newMountedVolume(t, newIdentity(t, "owen"))
	e := env.enclave
	small, big := []byte("inline"), bytes.Repeat([]byte("chunked "), 1024)
	dirs := []string{""}
	for depth := 1; depth < 6; depth++ {
		dir := fmt.Sprintf("%s/d%d", dirs[len(dirs)-1], depth)
		if err := e.Mkdir(dir); err != nil {
			t.Fatal(err)
		}
		dirs = append(dirs, dir)
	}
	for _, dir := range dirs {
		for _, f := range []struct {
			name string
			data []byte
		}{{"small", small}, {"big", big}} {
			if err := e.Touch(dir + "/" + f.name); err != nil {
				t.Fatal(err)
			}
			if err := e.WriteFile(dir+"/"+f.name, f.data); err != nil {
				t.Fatal(err)
			}
		}
	}
	rs := recordGets(e)

	for depth, dir := range dirs {
		read := func(name string, want []byte) func() error {
			return func() error {
				got, err := e.ReadFile(dir + "/" + name)
				if err == nil && !bytes.Equal(got, want) {
					err = errors.New("wrong content")
				}
				return err
			}
		}
		cases := []struct {
			what     string
			path     string
			withData bool
			ocalls   int64
			op       func() error
		}{
			{"Stat", dir + "/small", false, 1, func() error {
				st, err := e.Lookup(dir + "/small")
				if err == nil && st.Size != uint64(len(small)) {
					err = fmt.Errorf("size %d", st.Size)
				}
				return err
			}},
			{"ReadDir", dir + "/", false, 1, func() error {
				_, err := e.Filldir(dir + "/")
				return err
			}},
			{"inline ReadFile", dir + "/small", false, 1, read("small", small)},
			{"chunked ReadFile", dir + "/big", true, 2, read("big", big)},
		}
		for _, c := range cases {
			if err := c.op(); err != nil { // warms every cache on the path
				t.Fatalf("depth %d: %s: %v", depth+1, c.what, err)
			}
			var err error
			got := measure(e, rs, func() { err = c.op() })
			if err != nil {
				t.Fatalf("depth %d: %s: %v", depth+1, c.what, err)
			}
			if got.ecalls != 1 || got.ocalls != c.ocalls {
				t.Errorf("depth %d: warm %s of %s: (ecalls, ocalls) = (%d, %d), want (1, %d)",
					depth+1, c.what, c.path, got.ecalls, got.ocalls, c.ocalls)
			}
			if want := storeChain(t, e, env.store, c.path, c.withData); !slices.Equal(got.gets, want) {
				t.Errorf("depth %d: warm %s of %s read\n %v\nwant the chain the walk verifies\n %v",
					depth+1, c.what, c.path, got.gets, want)
			}
		}
	}
	if n := e.metrics.prefetchDiscarded.Value(); n != 0 {
		t.Errorf("enclave_walk_prefetch_discarded_total = %d on walks nothing disturbed", n)
	}

	// A read that fails ends the batch, as it ends the walk: the store is
	// asked for nothing after it, and the fault is classified as one
	// ocall's would be.
	deep := dirs[len(dirs)-1] + "/small"
	chain := storeChain(t, e, env.store, deep, false)
	rs.mu.Lock()
	rs.fail = chain[2]
	rs.mu.Unlock()
	var err error
	got := measure(e, rs, func() { _, err = e.ReadFile(deep) })
	if !errors.Is(err, ErrStoreUnavailable) {
		t.Fatalf("ReadFile(%s) with %s unreachable = %v, want ErrStoreUnavailable", deep, chain[2], err)
	}
	if !slices.Equal(got.gets, chain[:3]) || got.ocalls != 1 {
		t.Errorf("ReadFile with a failing read: %d ocalls reading\n %v\nwant 1 reading\n %v", got.ocalls, got.gets, chain[:3])
	}
}

// TestWarmWalkStalePrediction: a peer enclave moves a cached directory
// deeper — /top/mid becomes /top/other/inner and /top/other takes its
// name. The prediction, made from the cached /top, names the old /top/mid
// third; the walk refetches /top, finds another directory under that name
// and so discards the rest of the stash and fetches object by object from
// there on: the old /top/mid, met again one level down, is read afresh,
// not taken from the stash. The walk returns the peer's state, at the
// cost of exactly one read more than the peer's state needs.
func TestWarmWalkStalePrediction(t *testing.T) {
	owner := newIdentity(t, "owen")
	env, sealed, volID := newMountedVolume(t, owner)
	e := env.enclave
	for _, dir := range []string{"/top", "/top/mid", "/top/other"} {
		if err := e.Mkdir(dir); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Touch("/top/mid/x"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Filldir("/top/mid"); err != nil {
		t.Fatal(err)
	}
	staleMid := storeChain(t, e, env.store, "/top/mid", false)[2]

	peer := peerEnclave(t, env, owner, sealed, volID)
	if err := peer.Rename("/top/mid", "/top/other/inner"); err != nil {
		t.Fatal(err)
	}
	if err := peer.Rename("/top/other", "/top/mid"); err != nil {
		t.Fatal(err)
	}

	rs := recordGets(e)
	used, discarded := e.metrics.prefetchUsed.Value(), e.metrics.prefetchDiscarded.Value()
	var entries []Stat
	var err error
	got := measure(e, rs, func() { entries, err = e.Filldir("/top/mid/inner") })
	if err != nil || len(entries) != 1 || entries[0].Name != "x" {
		t.Fatalf("Filldir(/top/mid/inner) after the peer's renames = %+v, %v; want the moved directory", entries, err)
	}
	want := slices.Insert(storeChain(t, e, env.store, "/top/mid/inner", false), 2, staleMid)
	if !slices.Equal(got.gets, want) {
		t.Errorf("reads\n %v\nwant the peer's chain plus the one stale read\n %v", got.gets, want)
	}
	if got.ecalls != 1 || got.ocalls != 3 {
		t.Errorf("(ecalls, ocalls) = (%d, %d), want (1, 3): the batch, then one per directory", got.ecalls, got.ocalls)
	}
	if u, d := e.metrics.prefetchUsed.Value()-used, e.metrics.prefetchDiscarded.Value()-discarded; u != 2 || d != 1 {
		t.Errorf("prefetched reads used %d, discarded %d; want 2 and 1", u, d)
	}
}

// TestWalkPrefetchStopsAtDeniedDirectory: the enclave's cache holds
// directories the current user may not traverse (the owner walked them).
// A prediction never reaches past a directory whose cached ACL denies the
// walk's right, so the store sees exactly the reads of a walk without
// prefetching: none of /a/b for a member without Lookup on /a, and no
// filenode under a directory where the member lacks Read.
func TestWalkPrefetchStopsAtDeniedDirectory(t *testing.T) {
	env := mountTwoUsers(t, func(e *Enclave) {
		for _, dir := range []string{"/a", "/a/b", "/a/b/c", "/r"} {
			if err := e.Mkdir(dir); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Touch("/r/f"); err != nil {
			t.Fatal(err)
		}
		if err := e.SetACL("/", "alice", acl.Lookup); err != nil {
			t.Fatal(err)
		}
		if err := e.SetACL("/r", "alice", acl.Lookup); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Lookup("/a/b/c"); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Lookup("/r/f"); err != nil {
			t.Fatal(err)
		}
	})
	e := env.enclave
	chain := storeChain(t, e, env.store, "/a/b/c", false)
	e.mu.Lock()
	for _, name := range chain {
		id, _ := uuid.Parse(name)
		if _, ok := e.cache.entries[id]; !ok {
			t.Errorf("%s is not cached: the test would prove nothing", name)
		}
	}
	e.mu.Unlock()
	rs := recordGets(e)

	var err error
	got := measure(e, rs, func() { _, err = e.Lookup("/a/b/c") })
	if !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("Stat(/a/b/c) without Lookup on /a = %v, want ErrAccessDenied", err)
	}
	if !slices.Equal(got.gets, chain[:2]) {
		t.Errorf("Stat(/a/b/c) without Lookup on /a read\n %v\nwant the root and /a alone\n %v", got.gets, chain[:2])
	}

	file := storeChain(t, e, env.store, "/r/f", false)
	got = measure(e, rs, func() { _, err = e.ReadFile("/r/f") })
	if !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("ReadFile(/r/f) without Read on /r = %v, want ErrAccessDenied", err)
	}
	if !slices.Equal(got.gets, file[:2]) {
		t.Errorf("ReadFile(/r/f) without Read on /r read\n %v\nwant the root and /r alone\n %v", got.gets, file[:2])
	}
}

// TestWalkPrefetchDroppedByLock: a read made under a store lock must come
// after the lock. A prediction stashes /d/f's filenode, a peer rewrites
// the file, and only then is the filenode's lock taken and the filenode
// read — which must return the peer's content, not the stashed bytes.
func TestWalkPrefetchDroppedByLock(t *testing.T) {
	owner := newIdentity(t, "owen")
	env, sealed, volID := newMountedVolume(t, owner)
	e := env.enclave
	if err := e.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := e.Touch("/d/f"); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteFile("/d/f", []byte("before")); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ReadFile("/d/f"); err != nil {
		t.Fatal(err)
	}
	peer := peerEnclave(t, env, owner, sealed, volID)

	var got []byte
	err := e.sgx.Ecall(func() error {
		e.mu.Lock()
		defer e.mu.Unlock()
		e.prefetchWalkLocked([]string{"d"}, "f", acl.Read)
		defer e.dropWalkStashLocked()
		if n := len(e.walkStash); n != 3 {
			return fmt.Errorf("stashed %d reads, want the root, /d and the filenode", n)
		}
		if err := peer.WriteFile("/d/f", []byte("the peer's")); err != nil {
			return err
		}
		w, err := e.walkDirLocked([]string{"d"})
		if err != nil {
			return err
		}
		entry, err := e.lookupEntryLocked(w.dir, "f", "/d/f")
		if err != nil {
			return err
		}
		release, err := e.lockObject(objName(entry.UUID))
		if err != nil {
			return err
		}
		defer release()
		f, _, err := e.loadFilenode(entry.UUID, w.dir.UUID)
		if err != nil {
			return err
		}
		got = f.Inline
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "the peer's" {
		t.Fatalf("the filenode read under its lock holds %q, want the peer's commit", got)
	}
}
