// Two-client tests of the metadata commit (DESIGN.md §12.4): every
// rewrite of a directory the store holds, or of the supernode, runs under
// the freshness root's lock alone, and filenode locks are taken before it.
//
// Like the rollback suite, this lives in the external test package so it
// can stack the real untrusted-side plumbing (vfs.VersionedStore with real
// store locks, freshtree.Store) under each enclave.
package enclave_test

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"sync"
	"testing"
	"time"

	"nexus/internal/acl"
	"nexus/internal/backend"
	"nexus/internal/enclave"
	"nexus/internal/freshtree"
	"nexus/internal/merkle"
	"nexus/internal/metadata"
	"nexus/internal/sgx"
	"nexus/internal/uuid"
	"nexus/internal/vfs"
)

// hookStore runs a test's hook before each of one enclave's reads, puts,
// locks and unlocks, so a peer's operation can be placed at exactly that
// point.
type hookStore struct {
	enclave.FreshnessProofStore

	mu   sync.Mutex
	hook func(op, name string, data []byte)
}

func (s *hookStore) setHook(h func(op, name string, data []byte)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hook = h
}

func (s *hookStore) fire(op, name string, data []byte) {
	s.mu.Lock()
	h := s.hook
	s.mu.Unlock()
	if h != nil {
		h(op, name, data)
	}
}

func (s *hookStore) GetVersioned(name string) ([]byte, uint64, error) {
	s.fire("get", name, nil)
	return s.FreshnessProofStore.GetVersioned(name)
}

func (s *hookStore) PutVersioned(name string, data []byte) (uint64, error) {
	s.fire("put", name, data)
	return s.FreshnessProofStore.PutVersioned(name, data)
}

func (s *hookStore) Lock(name string) (func(), error) {
	s.fire("lock", name, nil)
	release, err := s.FreshnessProofStore.Lock(name)
	if err != nil {
		return nil, err
	}
	return func() {
		s.fire("unlock", name, nil)
		release()
	}, nil
}

// commitVolume is one volume on one backing store, shared by every client
// in this process through one adapter; each client has its own enclave,
// proof store and hook.
type commitVolume struct {
	mem    *backend.MemStore
	shared *vfs.VersionedStore
	ias    *sgx.AttestationService
	plat   *sgx.Platform
	sealed []byte
	volID  uuid.UUID
	pub    ed25519.PublicKey
	priv   ed25519.PrivateKey
}

// newCommitVolume creates the volume and returns it with its owner's
// first client.
func newCommitVolume(t *testing.T) (*commitVolume, *enclave.Enclave, *hookStore) {
	t.Helper()
	ias, err := sgx.NewAttestationService()
	if err != nil {
		t.Fatal(err)
	}
	plat, err := sgx.NewPlatform(sgx.PlatformConfig{}, ias)
	if err != nil {
		t.Fatal(err)
	}
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	mem := backend.NewMemStore()
	v := &commitVolume{mem: mem, shared: vfs.NewVersionedStore(mem), ias: ias, plat: plat, pub: pub, priv: priv}
	e, hooks := v.newEnclave(t)
	if v.sealed, err = e.CreateVolume("owen", pub); err != nil {
		t.Fatal(err)
	}
	if v.volID, err = e.VolumeUUID(); err != nil {
		t.Fatal(err)
	}
	v.mount(t, e)
	return v, e, hooks
}

func (v *commitVolume) newEnclave(t *testing.T) (*enclave.Enclave, *hookStore) {
	t.Helper()
	container, err := v.plat.CreateEnclave(rollbackImage)
	if err != nil {
		t.Fatal(err)
	}
	hooks := &hookStore{FreshnessProofStore: freshtree.New(v.shared)}
	e, err := enclave.New(enclave.Config{SGX: container, Store: hooks, IAS: v.ias})
	if err != nil {
		t.Fatal(err)
	}
	return e, hooks
}

func (v *commitVolume) mount(t *testing.T, e *enclave.Enclave) {
	t.Helper()
	nonce, blob, err := e.BeginAuth(v.pub, v.sealed, v.volID)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CompleteAuth(ed25519.Sign(v.priv, append(append([]byte(nil), nonce...), blob...))); err != nil {
		t.Fatal(err)
	}
}

// client mounts the volume as the owner on another enclave.
func (v *commitVolume) client(t *testing.T) (*enclave.Enclave, *hookStore) {
	t.Helper()
	e, hooks := v.newEnclave(t)
	v.mount(t, e)
	return e, hooks
}

// preamble peeks at the sealed preamble of the object the store holds
// under name.
func (v *commitVolume) preamble(t *testing.T, name string) metadata.Preamble {
	t.Helper()
	blob, err := v.mem.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := metadata.PeekPreamble(blob)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// dirnodeNames lists the store names of every dirnode main object.
func (v *commitVolume) dirnodeNames(t *testing.T) []string {
	t.Helper()
	names, err := v.mem.List("")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, name := range names {
		blob, _ := v.mem.Get(name)
		if p, err := metadata.PeekPreamble(blob); err == nil && p.Type == metadata.TypeDirnode {
			out = append(out, name)
		}
	}
	return out
}

// waitOrTimeout waits for done, or gives up after d: a peer that is
// blocked on a lock the waiting client holds finishes later.
func waitOrTimeout(done <-chan struct{}, d time.Duration) {
	select {
	case <-done:
	case <-time.After(d):
	}
}

// TestConcurrentDrainLeafNeverMovesBackwards: a freshness leaf names the
// version of the object the store holds, never an older one. One client's
// drain stalls between its directory store and its freshness-root lock; a
// peer creates in the same directory and drains in that gap. When the
// directory's store and the root update are two critical sections, the
// stalled client commits the leaf of the version the peer already
// replaced — a stale-low leaf, which no longer rejects a replay of the
// version in between. As one commit, the peer's drain either runs wholly
// before or wholly after it, and the leaf ends equal to the version
// sealed in the stored directory's preamble.
func TestConcurrentDrainLeafNeverMovesBackwards(t *testing.T) {
	v, a, aHooks := newCommitVolume(t)
	b, _ := v.client(t)
	if err := a.Touch("/seed"); err != nil {
		t.Fatal(err)
	}
	if err := a.SyncMetadata(); err != nil {
		t.Fatal(err)
	}

	if err := a.Touch("/from-a"); err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	var peerErr error
	done := make(chan struct{})
	aHooks.setHook(func(op, name string, _ []byte) {
		if op != "lock" || name != enclave.MerkleRootObjectName {
			return
		}
		once.Do(func() {
			go func() {
				defer close(done)
				if peerErr = b.Touch("/from-b"); peerErr == nil {
					peerErr = b.SyncMetadata()
				}
			}()
			waitOrTimeout(done, 250*time.Millisecond)
		})
	})
	if err := a.SyncMetadata(); err != nil {
		t.Fatal(err)
	}
	<-done
	aHooks.setHook(nil)
	if err := b.SyncMetadata(); err != nil || peerErr != nil {
		t.Fatalf("peer drain: %v / %v", peerErr, err)
	}

	dirs := v.dirnodeNames(t)
	if len(dirs) != 1 {
		t.Fatalf("store holds %d dirnodes, want the volume root alone", len(dirs))
	}
	// A client mounted now holds the newest commitment.
	fresh, _ := v.client(t)
	epoch, root, ok := fresh.FreshnessEpoch()
	if !ok {
		t.Fatal("no freshness commitment after mount")
	}
	id, err := uuid.Parse(dirs[0])
	if err != nil {
		t.Fatal(err)
	}
	raw, err := freshtree.New(v.shared).FreshnessProof(id, epoch)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := merkle.DecodeProof(raw)
	if err != nil {
		t.Fatal(err)
	}
	leaf, present, err := proof.Verify(root, id)
	if err != nil || !present {
		t.Fatalf("directory leaf: present %v, %v", present, err)
	}
	if sealed := v.preamble(t, dirs[0]).Version; leaf != sealed {
		t.Fatalf("directory leaf is at version %d, the stored directory at %d", leaf, sealed)
	}
	for _, name := range []string{"/seed", "/from-a", "/from-b"} {
		if _, err := fresh.Lookup(name); err != nil {
			t.Fatalf("%s after both drains: %v", name, err)
		}
	}
}

// TestConcurrentRenameKeepsWriteFileFilenode: a cross-directory rename of
// a file re-parents its filenode, and must do so under the filenode's
// lock. A peer's SaveFile holds that lock while it uploads new data and
// then the filenode carrying the new content keys. A rename that loads
// the filenode before that put and stores its copy after it seals the
// old keys over the new ones: every later read of the file fails
// authentication. Taking the filenode lock first, the rename waits for
// the write and re-parents what the write left.
func TestConcurrentRenameKeepsWriteFileFilenode(t *testing.T) {
	v, w, wHooks := newCommitVolume(t)
	r, rHooks := v.client(t)
	for _, dir := range []string{"/a", "/b"} {
		if err := w.Mkdir(dir); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Touch("/a/f"); err != nil {
		t.Fatal(err)
	}
	if err := w.SaveFile("/a/f", []byte("first contents"), false); err != nil {
		t.Fatal(err)
	}
	if err := w.SyncMetadata(); err != nil {
		t.Fatal(err)
	}

	var filenode string
	var renameErr error
	renamed := make(chan struct{})
	atFilenodePut := make(chan struct{}) // the rename is about to store the filenode
	written := make(chan struct{})       // the write's filenode store has returned
	var atOnce, writtenOnce, startOnce sync.Once
	rHooks.setHook(func(op, name string, _ []byte) {
		if op == "put" && name == filenode {
			atOnce.Do(func() { close(atFilenodePut) })
			<-written
		}
	})
	wHooks.setHook(func(op, name string, data []byte) {
		switch {
		case op == "put":
			p, err := metadata.PeekPreamble(data)
			if err != nil || p.Type != metadata.TypeFilenode {
				return
			}
			// The write has uploaded its data and is about to store the
			// filenode: the rename runs now, as far as it can get.
			startOnce.Do(func() {
				filenode = name
				go func() {
					defer close(renamed)
					renameErr = r.Rename("/a/f", "/b/f")
				}()
				select {
				case <-atFilenodePut:
				case <-renamed:
				case <-time.After(250 * time.Millisecond):
				}
			})
		case op == "lock" && name == enclave.MerkleRootObjectName && filenode != "":
			writtenOnce.Do(func() { close(written) })
		}
	})
	if err := w.SaveFile("/a/f", []byte("second contents"), false); err != nil {
		t.Fatalf("write racing the rename: %v", err)
	}
	<-renamed
	wHooks.setHook(nil)
	rHooks.setHook(nil)
	if renameErr != nil {
		t.Fatalf("rename racing the write: %v", renameErr)
	}

	reader, _ := v.client(t)
	got, err := reader.ReadFile("/b/f")
	if err != nil {
		t.Fatalf("reading the renamed file after the racing write: %v", err)
	}
	if !bytes.Equal(got, []byte("second contents")) {
		t.Fatalf("renamed file holds %q, want the write's contents", got)
	}
	if _, err := reader.Lookup("/a/f"); !errors.Is(err, enclave.ErrNotFound) {
		t.Fatalf("old name after the rename: %v", err)
	}
}

// lockWatch is a hook that checks the commit rule on every ocall of one
// enclave: no dirnode or the supernode is ever locked, and every put of a
// dirnode or the supernode the store already holds happens while the
// freshness root's lock is held.
type lockWatch struct {
	t    *testing.T
	mem  *backend.MemStore
	mu   sync.Mutex
	root bool
	puts int
}

func (w *lockWatch) hook(op, name string, data []byte) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if name == enclave.MerkleRootObjectName {
		w.root = op == "lock" || w.root && op != "unlock"
		return
	}
	stored, err := w.mem.Get(name)
	existing := err == nil
	switch op {
	case "lock":
		if p, err := metadata.PeekPreamble(stored); name == enclave.SupernodeObjectName || existing && err == nil && p.Type == metadata.TypeDirnode {
			w.t.Errorf("store lock taken on %s, a dirnode or the supernode", name)
		}
	case "put":
		p, err := metadata.PeekPreamble(data)
		if !existing || err != nil || p.Type != metadata.TypeDirnode && p.Type != metadata.TypeSupernode {
			return
		}
		w.puts++
		if !w.root {
			w.t.Errorf("%s %s rewritten outside the freshness root's lock", p.Type, name)
		}
	}
}

// TestLockOrderRootLockCoversEveryRewrite drives every operation that
// rewrites a directory or the supernode — drains of creates and removes,
// renames within and across directories and onto a file, hardlinks,
// SetACL, SetGroupACL, AddUser, RemoveUser, GrantAccess and the mutual
// grant — and checks each rewrite against the commit rule.
func TestLockOrderRootLockCoversEveryRewrite(t *testing.T) {
	v, e, hooks := newCommitVolume(t)
	watch := &lockWatch{t: t, mem: v.mem}
	hooks.setHook(watch.hook)
	must := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	must("mkdir", e.Mkdir("/a"))
	must("mkdir", e.Mkdir("/b"))
	must("mkdir", e.Mkdir("/a/sub"))
	must("touch", e.Touch("/a/f"))
	must("touch", e.Touch("/a/g"))
	must("sync", e.SyncMetadata())
	must("write", e.SaveFile("/a/f", []byte("contents"), false))
	must("rename within", e.Rename("/a/g", "/a/h"))
	must("rename across", e.Rename("/a/h", "/b/h"))
	must("rename directory across", e.Rename("/a/sub", "/b/sub"))
	must("hardlink", e.Hardlink("/a/f", "/b/link"))
	must("touch", e.Touch("/b/over"))
	must("rename onto a file", e.Rename("/b/over", "/a/f"))
	must("remove", e.Remove("/b/link"))
	must("remove", e.Remove("/b/sub"))
	must("sync", e.SyncMetadata())

	bobPub, _, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.AddUser("bob", bobPub)
	must("add user", err)
	must("setacl", e.SetACL("/a", "bob", acl.Read|acl.Lookup))
	leaf, err := e.UserGroup("bob")
	must("user group", err)
	must("setgroupacl", e.SetGroupACL("/b", leaf, acl.Lookup))
	must("remove user", e.RemoveUser("bob"))

	signer := func(msg []byte) ([]byte, error) { return ed25519.Sign(v.priv, msg), nil }
	for _, mutual := range []bool{false, true} {
		peer, _ := v.newEnclave(t)
		carolPub, carolPriv, err := ed25519.GenerateKey(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		carolSign := func(msg []byte) ([]byte, error) { return ed25519.Sign(carolPriv, msg), nil }
		if mutual {
			offer, err := peer.BeginMutualExchange("dave", carolSign)
			must("mutual offer", err)
			_, err = e.GrantAccessMutual(offer, "dave", carolPub, signer)
			must("mutual grant", err)
		} else {
			offer, err := peer.CreateExchangeOffer("carol", carolSign)
			must("offer", err)
			_, err = e.GrantAccess(offer, "carol", carolPub, signer)
			must("grant", err)
		}
	}
	hooks.setHook(nil)
	if watch.puts < 12 {
		t.Fatalf("only %d rewrites of a dirnode or the supernode were checked", watch.puts)
	}
}
