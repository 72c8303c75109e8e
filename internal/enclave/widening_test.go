// Tests of widening-only commits (DESIGN.md §15.2): a change that only
// adds rights puts its object under the root's lock and leaves its
// Merkle leaf to the next commit that puts the root.
package enclave_test

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"nexus/internal/acl"
	"nexus/internal/enclave"
	"nexus/internal/freshtree"
	"nexus/internal/merkle"
	"nexus/internal/metadata"
	"nexus/internal/uuid"
)

// replayStore serves, for each name it was told to replay, the blob it
// was given in place of the one the store holds: a store that rolls single
// objects back. The version it reports is one no copy had, so no client
// takes the blob for a copy it has decrypted.
type replayStore struct {
	enclave.FreshnessProofStore

	mu  sync.Mutex
	old map[string][]byte
}

func (s *replayStore) replay(name string, blob []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.old == nil {
		s.old = make(map[string][]byte)
	}
	s.old[name] = bytes.Clone(blob)
}

func (s *replayStore) GetVersioned(name string) ([]byte, uint64, error) {
	blob, version, err := s.FreshnessProofStore.GetVersioned(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.old[name]; ok && err == nil {
		return bytes.Clone(old), version + 1<<20, nil
	}
	return blob, version, err
}

// identity is a volume user's key pair.
type identity struct {
	pub  ed25519.PublicKey
	priv ed25519.PrivateKey
}

func newIdentity(t *testing.T) identity {
	t.Helper()
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return identity{pub, priv}
}

// replayClient returns an enclave over the volume whose store replays,
// and mounts it as id (nil: mounting is left to the caller).
func (v *commitVolume) replayClient(t *testing.T, id *identity) (*enclave.Enclave, *replayStore, error) {
	t.Helper()
	container, err := v.plat.CreateEnclave(rollbackImage)
	if err != nil {
		t.Fatal(err)
	}
	store := &replayStore{FreshnessProofStore: freshtree.New(v.shared)}
	e, err := enclave.New(enclave.Config{SGX: container, Store: store, IAS: v.ias})
	if err != nil {
		t.Fatal(err)
	}
	if id == nil {
		return e, store, nil
	}
	return e, store, mountAs(e, v, *id)
}

// mountAs authenticates id on e.
func mountAs(e *enclave.Enclave, v *commitVolume, id identity) error {
	nonce, blob, err := e.BeginAuth(id.pub, v.sealed, v.volID)
	if err != nil {
		return err
	}
	return e.CompleteAuth(ed25519.Sign(id.priv, append(append([]byte(nil), nonce...), blob...)))
}

// mkdir makes the directory path on e, drains, and returns its store
// name.
func (v *commitVolume) mkdir(t *testing.T, e *enclave.Enclave, path string) string {
	t.Helper()
	before := v.dirnodeNames(t)
	if err := e.Mkdir(path); err != nil {
		t.Fatal(err)
	}
	if err := e.SyncMetadata(); err != nil {
		t.Fatal(err)
	}
	for _, name := range v.dirnodeNames(t) {
		if !slices.Contains(before, name) {
			return name
		}
	}
	t.Fatalf("no new dirnode for %s", path)
	return ""
}

// storedBlob is the object the backing store holds under name.
func (v *commitVolume) storedBlob(t *testing.T, name string) []byte {
	t.Helper()
	blob, err := v.mem.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Clone(blob)
}

// leafOf proves name's leaf at the newest root on the store.
func (v *commitVolume) leafOf(t *testing.T, name string) uint64 {
	t.Helper()
	fresh, _ := v.client(t)
	epoch, root, ok := fresh.FreshnessEpoch()
	if !ok {
		t.Fatal("no freshness commitment after mount")
	}
	id, err := uuid.Parse(name)
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
		t.Fatalf("leaf of %s: present %v, %v", name, present, err)
	}
	return leaf
}

// TestWideningCommitLeavesItsLeaf: a grant puts its directory and leaves
// the leaf where it was; the next commit that puts the root carries it.
func TestWideningCommitLeavesItsLeaf(t *testing.T) {
	v, a, _ := newCommitVolume(t)
	bob := newIdentity(t)
	if _, err := a.AddUser("bob", bob.pub); err != nil {
		t.Fatal(err)
	}
	d := v.mkdir(t, a, "/d")
	before := v.leafOf(t, d)
	if err := a.SetACL("/d", "bob", acl.Read); err != nil {
		t.Fatal(err)
	}
	sealed := v.preamble(t, d).Version
	if sealed != before+1 {
		t.Fatalf("the grant sealed /d at version %d, want %d", sealed, before+1)
	}
	if leaf := v.leafOf(t, d); leaf != before {
		t.Fatalf("after the grant the leaf of /d is %d, want %d: the grant committed the root", leaf, before)
	}
	if err := a.SyncMetadata(); err != nil {
		t.Fatal(err)
	}
	if leaf := v.leafOf(t, d); leaf != sealed {
		t.Fatalf("after a sync the leaf of /d is %d, want the grant's %d", leaf, sealed)
	}
}

// TestWideningLeafNeverMovesBackwards: client A leaves a grant's leaf
// pending; client B rewrites the same directory and commits; then A
// commits another op. A's record would lower the leaf below B's version,
// so A re-proves it against the root it finds and drops it: the leaf stays
// at B's version, and a replay of A's version is stale.
func TestWideningLeafNeverMovesBackwards(t *testing.T) {
	v, a, _ := newCommitVolume(t)
	b, _ := v.client(t)
	bob := newIdentity(t)
	if _, err := a.AddUser("bob", bob.pub); err != nil {
		t.Fatal(err)
	}
	d := v.mkdir(t, a, "/d")

	if err := a.SetACL("/d", "bob", acl.Read); err != nil {
		t.Fatal(err)
	}
	aVersion, aBlob := v.preamble(t, d).Version, v.storedBlob(t, d)
	if err := b.Touch("/d/from-b"); err != nil {
		t.Fatal(err)
	}
	if err := b.SyncMetadata(); err != nil {
		t.Fatal(err)
	}
	bVersion := v.preamble(t, d).Version
	if bVersion <= aVersion {
		t.Fatalf("B sealed /d at %d, not above A's %d", bVersion, aVersion)
	}
	if err := a.Mkdir("/e"); err != nil {
		t.Fatal(err)
	}
	if err := a.SyncMetadata(); err != nil {
		t.Fatal(err)
	}
	if leaf := v.leafOf(t, d); leaf != bVersion {
		t.Fatalf("the leaf of /d is %d after A's commit, want B's version %d (A's is %d)", leaf, bVersion, aVersion)
	}
	third, store, err := v.replayClient(t, nil)
	if err != nil {
		t.Fatal(err)
	}
	v.mount(t, third)
	store.replay(d, aBlob)
	if _, err := third.Filldir("/d"); !errors.Is(err, enclave.ErrStaleObject) {
		t.Fatalf("a replay of A's version of /d to a third client = %v, want ErrStaleObject", err)
	}
}

// TestReplayedGrantDeniesAccess: a store that rolls a pending grant back
// can only show its reader the access before it — a denial, never more.
func TestReplayedGrantDeniesAccess(t *testing.T) {
	v, owner, _ := newCommitVolume(t)
	bob := newIdentity(t)
	if _, err := owner.AddUser("bob", bob.pub); err != nil {
		t.Fatal(err)
	}
	d := v.mkdir(t, owner, "/d")
	if err := owner.SetACL("/", "bob", acl.Lookup); err != nil {
		t.Fatal(err)
	}
	if err := owner.SyncMetadata(); err != nil {
		t.Fatal(err)
	}
	preGrant := v.storedBlob(t, d)
	if err := owner.SetACL("/d", "bob", acl.ReadOnly); err != nil {
		t.Fatal(err)
	}

	reader, store, err := v.replayClient(t, &bob)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reader.Filldir("/d"); err != nil {
		t.Fatalf("bob lists /d after the grant: %v", err)
	}
	store.replay(d, preGrant)
	if _, err := reader.Filldir("/d"); !errors.Is(err, enclave.ErrAccessDenied) {
		t.Fatalf("bob lists /d rolled back to before the grant = %v, want ErrAccessDenied", err)
	}
}

// TestAdmissionCommitsTheRoot: an admission only widens access, but it
// also hands out the next member ID, so it commits the root at once. The
// owner admits zoe, grants her /d and stops before any other root commit;
// a store that then replays the supernode from before her admission is
// caught, at the restarted owner's mount and at its next admission, which
// would otherwise give wes zoe's ID and with it her grant on /d.
func TestAdmissionCommitsTheRoot(t *testing.T) {
	v, owner, _ := newCommitVolume(t)
	zoe, wes := newIdentity(t), newIdentity(t)
	v.mkdir(t, owner, "/d")
	preAdmit := v.storedBlob(t, enclave.SupernodeObjectName)
	zoeID, err := owner.AddUser("zoe", zoe.pub)
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.SetACL("/d", "zoe", acl.ReadOnly); err != nil {
		t.Fatal(err)
	}

	restarted, store, err := v.replayClient(t, nil)
	if err != nil {
		t.Fatal(err)
	}
	store.replay(enclave.SupernodeObjectName, preAdmit)
	if err := mountAs(restarted, v, identity{v.pub, v.priv}); !errors.Is(err, enclave.ErrStaleObject) {
		t.Fatalf("the owner mounts the supernode from before zoe's admission = %v, want ErrStaleObject", err)
	}

	restarted, store, err = v.replayClient(t, nil)
	if err != nil {
		t.Fatal(err)
	}
	v.mount(t, restarted)
	store.replay(enclave.SupernodeObjectName, preAdmit)
	id, err := restarted.AddUser("wes", wes.pub)
	if id == zoeID {
		t.Fatalf("wes was given zoe's ID %d", id)
	}
	if !errors.Is(err, enclave.ErrStaleObject) {
		t.Fatalf("an admission over the supernode from before zoe's = %v (ID %d), want ErrStaleObject", err, id)
	}
}

// TestReplayedRevocationIsStale: a change that drops a right commits the
// root at once, carrying the leaves grants left pending, so a replay of
// the state before it — a directory or the supernode — is stale.
func TestReplayedRevocationIsStale(t *testing.T) {
	v, owner, _ := newCommitVolume(t)
	bob, carol := newIdentity(t), newIdentity(t)
	if _, err := owner.AddUser("bob", bob.pub); err != nil {
		t.Fatal(err)
	}
	d := v.mkdir(t, owner, "/d")
	if err := owner.SetACL("/", "bob", acl.Lookup); err != nil {
		t.Fatal(err)
	}
	if err := owner.SetACL("/d", "bob", acl.ReadOnly); err != nil {
		t.Fatal(err)
	}
	if _, err := owner.AddUser("carol", carol.pub); err != nil {
		t.Fatal(err)
	}
	preRevoke := v.storedBlob(t, d)
	preRemove := v.storedBlob(t, enclave.SupernodeObjectName)
	if err := owner.SetACL("/d", "bob", acl.None); err != nil {
		t.Fatal(err)
	}
	if err := owner.RemoveUser("carol"); err != nil {
		t.Fatal(err)
	}

	reader, store, err := v.replayClient(t, &bob)
	if err != nil {
		t.Fatal(err)
	}
	store.replay(d, preRevoke)
	if _, err := reader.Filldir("/d"); !errors.Is(err, enclave.ErrStaleObject) {
		t.Fatalf("bob lists /d rolled back to before his revocation = %v, want ErrStaleObject", err)
	}
	revoked, store, err := v.replayClient(t, nil)
	if err != nil {
		t.Fatal(err)
	}
	store.replay(enclave.SupernodeObjectName, preRemove)
	if err := mountAs(revoked, v, carol); !errors.Is(err, enclave.ErrStaleObject) {
		t.Fatalf("carol mounts the supernode rolled back to before her removal = %v, want ErrStaleObject", err)
	}
}

// TestHiddenGrantDoesNotOutliveRevocation: a store that hides a pending
// grant from the next writer cannot make the grant outlive a revocation.
// The writer that is shown the state before the grant revokes from it; a
// root commit seals at the next multiple of the version stride, above
// every version a widening-only commit put since, so the hidden grant's
// version is stale once the revocation commits. A writer shown the
// version its own pending grant replaced fails closed: its own record
// outranks a version the leaf still allows. A writer shown the state
// before the grant that moves the directory elsewhere seals it above the
// hidden version too, so no version number names two sealed objects.
func TestHiddenGrantDoesNotOutliveRevocation(t *testing.T) {
	t.Run("revocation", func(t *testing.T) {
		v, a, _ := newCommitVolume(t)
		bob, carol := newIdentity(t), newIdentity(t)
		for name, id := range map[string]identity{"bob": bob, "carol": carol} {
			if _, err := a.AddUser(name, id.pub); err != nil {
				t.Fatal(err)
			}
		}
		d := v.mkdir(t, a, "/d")
		if err := a.SetACL("/d", "carol", acl.Read); err != nil {
			t.Fatal(err)
		}
		if err := a.SyncMetadata(); err != nil {
			t.Fatal(err)
		}
		preGrant := v.storedBlob(t, d)
		if err := a.SetACL("/d", "bob", acl.Read); err != nil {
			t.Fatal(err)
		}
		grant := v.storedBlob(t, d)

		b, bStore, err := v.replayClient(t, nil)
		if err != nil {
			t.Fatal(err)
		}
		v.mount(t, b)
		bStore.replay(d, preGrant)
		if err := b.SetACL("/d", "carol", acl.None); err != nil {
			t.Fatalf("B revokes carol from the state the store shows: %v", err)
		}
		third, store, err := v.replayClient(t, nil)
		if err != nil {
			t.Fatal(err)
		}
		v.mount(t, third)
		store.replay(d, grant)
		if _, err := third.Filldir("/d"); !errors.Is(err, enclave.ErrStaleObject) {
			t.Fatalf("the hidden grant's /d served after B's revocation = %v, want ErrStaleObject", err)
		}

		revoked := v.storedBlob(t, d)
		own, ownStore, err := v.replayClient(t, nil)
		if err != nil {
			t.Fatal(err)
		}
		v.mount(t, own)
		if err := own.SetACL("/d", "bob", acl.Read|acl.Write); err != nil {
			t.Fatal(err)
		}
		ownStore.replay(d, revoked)
		if err := own.SetACL("/d", "bob", acl.None); !errors.Is(err, enclave.ErrStaleObject) {
			t.Fatalf("a revocation over a store hiding the writer's own pending grant = %v, want ErrStaleObject", err)
		}
	})
	t.Run("rename", func(t *testing.T) {
		v, a, _ := newCommitVolume(t)
		bob := newIdentity(t)
		if _, err := a.AddUser("bob", bob.pub); err != nil {
			t.Fatal(err)
		}
		v.mkdir(t, a, "/src")
		v.mkdir(t, a, "/dst")
		c := v.mkdir(t, a, "/src/c")
		preGrant := v.storedBlob(t, c)
		if err := a.SetACL("/src/c", "bob", acl.Read); err != nil {
			t.Fatal(err)
		}
		grant, grantVersion := v.storedBlob(t, c), v.preamble(t, c).Version

		b, bStore, err := v.replayClient(t, nil)
		if err != nil {
			t.Fatal(err)
		}
		v.mount(t, b)
		bStore.replay(c, preGrant)
		if err := b.Rename("/src/c", "/dst/c"); err != nil {
			t.Fatalf("B moves c from the state the store shows: %v", err)
		}
		moved := v.preamble(t, c).Version
		if moved <= grantVersion {
			t.Fatalf("B's rename sealed c at %d, not above the hidden grant's %d", moved, grantVersion)
		}
		if leaf := v.leafOf(t, c); leaf != moved {
			t.Fatalf("the leaf of c is %d after B's rename, want its version %d", leaf, moved)
		}
		third, store, err := v.replayClient(t, nil)
		if err != nil {
			t.Fatal(err)
		}
		v.mount(t, third)
		store.replay(c, grant)
		if _, err := third.Filldir("/dst/c"); !errors.Is(err, enclave.ErrStaleObject) && !errors.Is(err, metadata.ErrTampered) {
			t.Fatalf("the hidden grant's c served after B's rename = %v, want ErrStaleObject or ErrTampered", err)
		}
	})
}

// refusingRootStore fails the next put of the sealed root when armed.
type refusingRootStore struct {
	enclave.FreshnessProofStore
	refuse atomic.Bool
}

func (s *refusingRootStore) PutVersioned(name string, data []byte) (uint64, error) {
	if name == enclave.MerkleRootObjectName && s.refuse.Swap(false) {
		return 0, errors.New("root put refused")
	}
	return s.FreshnessProofStore.PutVersioned(name, data)
}

// TestNarrowingRecordNotLeftWaiting: a revocation whose root put failed
// leaves its directory's record waiting; a grant after it is then not
// widening-only, and commits the root, carrying the revocation's leaf.
func TestNarrowingRecordNotLeftWaiting(t *testing.T) {
	v, owner, _ := newCommitVolume(t)
	bob := newIdentity(t)
	if _, err := owner.AddUser("bob", bob.pub); err != nil {
		t.Fatal(err)
	}
	d := v.mkdir(t, owner, "/d")
	if err := owner.SetACL("/d", "bob", acl.Read); err != nil {
		t.Fatal(err)
	}
	if err := owner.SyncMetadata(); err != nil {
		t.Fatal(err)
	}
	container, err := v.plat.CreateEnclave(rollbackImage)
	if err != nil {
		t.Fatal(err)
	}
	store := &refusingRootStore{FreshnessProofStore: freshtree.New(v.shared)}
	e, err := enclave.New(enclave.Config{SGX: container, Store: store, IAS: v.ias})
	if err != nil {
		t.Fatal(err)
	}
	v.mount(t, e)
	store.refuse.Store(true)
	if err := e.SetACL("/d", "bob", acl.None); err == nil {
		t.Fatal("the revocation committed over a refused root put")
	}
	revoked := v.preamble(t, d).Version
	if leaf := v.leafOf(t, d); leaf == revoked {
		t.Fatal("the refused root put committed the revocation's leaf")
	}
	if err := e.SetACL("/", "bob", acl.Lookup); err != nil {
		t.Fatal(err)
	}
	if leaf := v.leafOf(t, d); leaf != revoked {
		t.Fatalf("after a grant the leaf of /d is %d, want the revocation's %d: the grant left it waiting", leaf, revoked)
	}
}
