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
	FreshnessProofStore

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
	return s.FreshnessProofStore.GetVersioned(name)
}

// recordGets puts a recordingStore between e and its store.
func recordGets(e *Enclave) *recordingStore {
	e.mu.Lock()
	defer e.mu.Unlock()
	rs := &recordingStore{FreshnessProofStore: e.store}
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
	peer, err := New(Config{SGX: container, Store: env.store, IAS: env.ias})
	if err != nil {
		t.Fatal(err)
	}
	peer.SetWritebackMaxOps(1)
	if err := authenticate(t, peer, owner, sealed, volID); err != nil {
		t.Fatal(err)
	}
	return peer
}

// TestWarmWalkOneOcall: a warm Stat, ReadDir or ReadFile — inline or
// chunked, whose data object is read with the walk — is one ecall and one
// ocall at any depth the first time, and the store is asked for exactly
// the objects the walk verifies, in walk order — the reads one ocall per
// object made. The walk leaves a hint outside the enclave, so the same
// walk again makes those reads before it enters and makes no ocall.
func TestWarmWalkOneOcall(t *testing.T) {
	env, _, _ := newMountedVolume(t, newIdentity(t, "owen"))
	e := env.enclave
	small, big := InlineFile('s'), ChunkedFile('c')
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
			if err := e.SaveFile(dir+"/"+f.name, f.data, false); err != nil {
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
			op       func() error
		}{
			{"Stat", dir + "/small", false, func() error {
				st, err := e.Lookup(dir + "/small")
				if err == nil && st.Size != uint64(len(small)) {
					err = fmt.Errorf("size %d", st.Size)
				}
				return err
			}},
			{"ReadDir", dir + "/", false, func() error {
				_, err := e.Filldir(dir + "/")
				return err
			}},
			{"inline ReadFile", dir + "/small", false, read("small", small)},
			{"chunked ReadFile", dir + "/big", true, read("big", big)},
		}
		for _, c := range cases {
			want := storeChain(t, e, env.store, c.path, c.withData)
			for _, hinted := range []bool{false, true} {
				var err error
				got := measure(e, rs, func() { err = c.op() })
				if err != nil {
					t.Fatalf("depth %d: %s: %v", depth+1, c.what, err)
				}
				ocalls := int64(1)
				if hinted {
					ocalls = 0
				}
				if got.ecalls != 1 || got.ocalls != ocalls {
					t.Errorf("depth %d: warm %s of %s (hint: %v): (ecalls, ocalls) = (%d, %d), want (1, %d)",
						depth+1, c.what, c.path, hinted, got.ecalls, got.ocalls, ocalls)
				}
				if !slices.Equal(got.gets, want) {
					t.Errorf("depth %d: warm %s of %s (hint: %v) read\n %v\nwant the chain the walk verifies\n %v",
						depth+1, c.what, c.path, hinted, got.gets, want)
				}
			}
		}
	}
	if n := e.metrics.prefetchDiscarded.Value(); n != 0 {
		t.Errorf("enclave_walk_prefetch_discarded_total = %d on walks nothing disturbed", n)
	}

	// A read that fails ends the reads made before the ecall, as it ends
	// the walk: the store is asked for nothing after it, the fault is
	// classified as an ocall's would be, and the walk makes no ocall.
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
	if !slices.Equal(got.gets, chain[:3]) || got.ocalls != 0 {
		t.Errorf("ReadFile with a failing read: %d ocalls reading\n %v\nwant 0 reading\n %v", got.ocalls, got.gets, chain[:3])
	}
}

// TestWarmWalkStalePrediction: a peer enclave moves a cached directory
// deeper — /top/mid becomes /top/other/inner and /top/other takes its
// name. The prediction, made from the cached /top, names the old /top/mid
// third; the walk refetches /top and finds another directory under that
// name, which it fetches in a second ocall; the old /top/mid, met one
// level down as inner, is the read made ahead in this ecall, and the walk
// takes it from the stash. The walk returns the peer's state, reading
// exactly the objects the peer's state needs. Each of the three
// directories the peer rewrote misses the decrypted cache, so its load
// verifies a freshness proof in an exit of its own.
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
	chain := storeChain(t, e, env.store, "/top/mid/inner", false)
	if chain[3] != staleMid {
		t.Fatalf("the moved directory is %s, want the old /top/mid %s", chain[3], staleMid)
	}
	want := []string{chain[0], chain[1], staleMid, chain[2]}
	if !slices.Equal(got.gets, want) {
		t.Errorf("reads\n %v\nwant the predicted three, then the directory now named mid\n %v", got.gets, want)
	}
	if got.ecalls != 1 || got.ocalls != 5 {
		t.Errorf("(ecalls, ocalls) = (%d, %d), want (1, 5): the batch, the one directory it missed, and a proof for each of the three the peer rewrote", got.ecalls, got.ocalls)
	}
	if u, d := e.metrics.prefetchUsed.Value()-used, e.metrics.prefetchDiscarded.Value()-discarded; u != 3 || d != 0 {
		t.Errorf("prefetched reads used %d, discarded %d; want 3 and 0", u, d)
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

// readHook runs fn once, on the first read of name after fn is set,
// after the store has answered it.
type readHook struct {
	FreshnessProofStore

	mu   sync.Mutex
	name string
	fn   func()
}

func (s *readHook) GetVersioned(name string) ([]byte, uint64, error) {
	blob, version, err := s.FreshnessProofStore.GetVersioned(name)
	s.mu.Lock()
	fn := s.fn
	if name == s.name {
		s.fn = nil
	} else {
		fn = nil
	}
	s.mu.Unlock()
	if fn != nil {
		fn()
	}
	return blob, version, err
}

// TestWalkPrefetchDroppedOnCacheReplace: the decrypted cache's part of the
// generation rule. A walk's stub reads /d from its hint. Before the walk
// enters, a peer commits a new entry in /d, and a second walk of this
// enclave loads the peer's /d into the cache, replacing the copy the hint
// was predicted from. Only walks ran on this enclave, so only that
// replacement moves the generation: the first walk drops the reads its
// stub made and returns the peer's state.
func TestWalkPrefetchDroppedOnCacheReplace(t *testing.T) {
	owner := newIdentity(t, "owen")
	env, sealed, volID := newMountedVolume(t, owner)
	e := env.enclave
	if err := e.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := e.Touch("/d/old"); err != nil {
		t.Fatal(err)
	}
	peer := peerEnclave(t, env, owner, sealed, volID)
	if _, err := e.Filldir("/d"); err != nil { // leaves the hint
		t.Fatal(err)
	}
	chain := storeChain(t, e, env.store, "/d", false)
	hook := &readHook{name: chain[1]}
	e.mu.Lock()
	hook.FreshnessProofStore, e.store = e.store, hook
	e.mu.Unlock()

	names := func(entries []Stat) []string {
		var out []string
		for _, st := range entries {
			out = append(out, st.Name)
		}
		return out
	}
	want := []string{"new", "old"}
	var second []Stat
	var secondErr error
	hook.mu.Lock()
	hook.fn = func() {
		if err := peer.Touch("/d/new"); err != nil {
			t.Error(err)
		}
		second, secondErr = e.Filldir("/d")
	}
	hook.mu.Unlock()
	discarded := e.metrics.prefetchDiscarded.Value()
	first, err := e.Filldir("/d")
	if secondErr != nil || !slices.Equal(names(second), want) {
		t.Fatalf("the second walk listed %v, %v; want the peer's %v", names(second), secondErr, want)
	}
	if err != nil || !slices.Equal(names(first), want) {
		t.Fatalf("the first walk listed %v, %v; want the peer's %v", names(first), err, want)
	}
	if n := e.metrics.prefetchDiscarded.Value() - discarded; n != int64(len(chain)) {
		t.Errorf("the first walk discarded %d reads made ahead, want its stub's %d", n, len(chain))
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
	if err := e.SaveFile("/d/f", []byte("before"), false); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ReadFile("/d/f"); err != nil {
		t.Fatal(err)
	}
	peer := peerEnclave(t, env, owner, sealed, volID)

	var got []byte
	err := e.sgx.Ecall(func() (err error) {
		e.mu.Lock()
		defer e.mu.Unlock()
		defer e.leaveLocked(&err)
		if err := e.exitLocked(getsAhead(e.predictWalkLocked([]string{"d"}, "f", acl.Read))...); err != nil {
			return err
		}
		if n := len(e.stash); n != 3 {
			return fmt.Errorf("stashed %d reads, want the root, /d and the filenode", n)
		}
		if err := peer.SaveFile("/d/f", []byte("the peer's"), false); err != nil {
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
		defer e.lockObject(objName(entry.UUID))()
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

// TestConcurrentWalksBesideWrites: the generation check. Two goroutines
// Stat and read files under /d of one enclave while a third rewrites —
// inline and chunked — renames and removes them, so reads an ecall stub
// made from a hint are often overtaken by a write before the walk enters.
// Every read returns content some write produced, or a typed not-found:
// none returns ErrStaleObject, ErrBadProof or ErrTampered.
func TestConcurrentWalksBesideWrites(t *testing.T) {
	env, _, _ := newMountedVolume(t, newIdentity(t, "owen"))
	e := env.enclave
	if err := e.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	const files = 3
	path := func(i int) string { return fmt.Sprintf("/d/f%d", i) }
	var written sync.Map           // every content a write produced
	chunked := len(ChunkedFile(0)) // above the inline cap: a data object
	content := func(seq int) []byte {
		n := 64
		if seq%3 == 0 {
			n = chunked
		}
		data := []byte(fmt.Sprintf("%0*d", n, seq))
		written.Store(string(data), true)
		return data
	}
	for i := 0; i < files; i++ {
		if err := e.SaveFile(path(i), content(i), true); err != nil {
			t.Fatal(err)
		}
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-done:
					return
				default:
				}
				p := path((n + r) % files)
				if n%2 == 0 {
					st, err := e.Lookup(p)
					if err == nil && st.Size != 64 && st.Size != uint64(chunked) {
						t.Errorf("Stat(%s) = size %d, which no write produced", p, st.Size)
					} else if err != nil && !errors.Is(err, ErrNotFound) {
						t.Errorf("Stat(%s) beside writes: %v", p, err)
					}
					continue
				}
				data, err := e.ReadFile(p)
				if err == nil {
					if _, ok := written.Load(string(data)); !ok {
						t.Errorf("ReadFile(%s) = %d bytes no write produced", p, len(data))
					}
				} else if !errors.Is(err, ErrNotFound) {
					t.Errorf("ReadFile(%s) beside writes: %v", p, err)
				}
			}
		}(r)
	}
	for seq := files; seq < files+60; seq++ {
		i, j := seq%files, (seq+1)%files
		var err error
		switch seq % 4 {
		case 0, 1:
			err = e.SaveFile(path(i), content(seq), true)
		case 2:
			err = e.Rename(path(i), path(j))
		case 3:
			err = e.Remove(path(j))
		}
		if err != nil && !errors.Is(err, ErrNotFound) {
			t.Errorf("write %d: %v", seq, err)
		}
	}
	close(done)
	wg.Wait()
}
