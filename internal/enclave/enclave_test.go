package enclave

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"sync"
	"testing"

	"nexus/internal/backend"
	"nexus/internal/sgx"
	"nexus/internal/uuid"
)

// memObjectStore adapts backend.MemStore to the enclave's versioned
// ocall surface for tests.
type memObjectStore struct {
	mem *backend.MemStore

	mu       sync.Mutex
	versions map[string]uint64
}

func newMemObjectStore() *memObjectStore {
	return &memObjectStore{mem: backend.NewMemStore(), versions: make(map[string]uint64)}
}

func (s *memObjectStore) GetVersioned(name string) ([]byte, uint64, error) {
	data, err := s.mem.Get(name)
	if err != nil {
		return nil, 0, err
	}
	s.mu.Lock()
	v := s.versions[name]
	s.mu.Unlock()
	return data, v, nil
}

func (s *memObjectStore) PutVersioned(name string, data []byte) (uint64, error) {
	if err := s.mem.Put(name, data); err != nil {
		return 0, err
	}
	s.mu.Lock()
	s.versions[name]++
	v := s.versions[name]
	s.mu.Unlock()
	return v, nil
}

func (s *memObjectStore) Delete(name string) error { return s.mem.Delete(name) }

func (s *memObjectStore) Lock(name string) (func(), error) { return s.mem.Lock(name) }

// identity is a test user: a named Ed25519 keypair.
type identity struct {
	name string
	pub  ed25519.PublicKey
	priv ed25519.PrivateKey
}

func newIdentity(t testing.TB, name string) identity {
	t.Helper()
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return identity{name: name, pub: pub, priv: priv}
}

func (id identity) signer() Signer {
	return func(msg []byte) ([]byte, error) {
		return ed25519.Sign(id.priv, msg), nil
	}
}

// nexusImage is the enclave code identity used across tests; exchanges
// require both parties to run the same measurement.
var nexusImage = sgx.Image{Name: "nexus-enclave", Version: 1, Code: []byte("nexus enclave code v1")}

// testEnv bundles one client's NEXUS stack.
type testEnv struct {
	ias      *sgx.AttestationService
	platform *sgx.Platform
	enclave  *Enclave
	store    *memObjectStore
}

// newTestEnv builds an enclave on a fresh platform over the given store
// (shared stores simulate the common storage service). Its dirty set
// drains after every mutation, so tests observe the store without
// barriers of their own.
func newTestEnv(t testing.TB, ias *sgx.AttestationService, store *memObjectStore) *testEnv {
	t.Helper()
	if ias == nil {
		var err error
		ias, err = sgx.NewAttestationService()
		if err != nil {
			t.Fatal(err)
		}
	}
	if store == nil {
		store = newMemObjectStore()
	}
	platform, err := sgx.NewPlatform(sgx.PlatformConfig{}, ias)
	if err != nil {
		t.Fatal(err)
	}
	container, err := platform.CreateEnclave(nexusImage)
	if err != nil {
		t.Fatal(err)
	}
	encl, err := New(Config{SGX: container, Store: store, IAS: ias})
	if err != nil {
		t.Fatal(err)
	}
	encl.SetWritebackMaxOps(1)
	return &testEnv{ias: ias, platform: platform, enclave: encl, store: store}
}

// authenticate runs the full challenge–response for a user.
func authenticate(t testing.TB, e *Enclave, id identity, sealedRootKey []byte, volumeID uuid.UUID) error {
	t.Helper()
	nonce, superBlob, err := e.BeginAuth(id.pub, sealedRootKey, volumeID)
	if err != nil {
		return err
	}
	msg := append(append([]byte(nil), nonce...), superBlob...)
	return e.CompleteAuth(ed25519.Sign(id.priv, msg))
}

// newMountedVolume creates a volume owned by owner and authenticates.
func newMountedVolume(t *testing.T, owner identity) (*testEnv, []byte, uuid.UUID) {
	t.Helper()
	env := newTestEnv(t, nil, nil)
	sealed, err := env.enclave.CreateVolume(owner.name, owner.pub)
	if err != nil {
		t.Fatalf("CreateVolume: %v", err)
	}
	volID, err := peekVolumeID(t, env, owner, sealed)
	if err != nil {
		t.Fatal(err)
	}
	if err := authenticate(t, env.enclave, owner, sealed, volID); err != nil {
		t.Fatalf("authenticate: %v", err)
	}
	return env, sealed, volID
}

// peekVolumeID recovers the volume UUID after CreateVolume (the enclave
// already holds the supernode).
func peekVolumeID(t *testing.T, env *testEnv, owner identity, sealed []byte) (uuid.UUID, error) {
	t.Helper()
	return env.enclave.VolumeUUID()
}

func TestCreateVolumeAndAuthenticate(t *testing.T) {
	owner := newIdentity(t, "owen")
	env, sealed, volID := newMountedVolume(t, owner)

	env.enclave.mu.Lock()
	u, authed := env.enclave.user, env.enclave.authed
	env.enclave.mu.Unlock()
	if !authed || u.Name != "owen" || u.ID != 1 {
		t.Fatalf("user = %+v (authenticated %v)", u, authed)
	}
	if volID.IsNil() {
		t.Fatal("nil volume id")
	}
	if len(sealed) == 0 {
		t.Fatal("empty sealed rootkey")
	}
	// The sealed blob must not contain key material recognizable as the
	// rootkey; minimally it must differ from any stored object.
	if bytes.Contains(sealed, []byte("supernode")) {
		t.Fatal("sealed rootkey looks like plaintext")
	}
}

func TestAuthRejectsUnauthorizedKey(t *testing.T) {
	owner := newIdentity(t, "owen")
	env, sealed, volID := newMountedVolume(t, owner)

	mallory := newIdentity(t, "mallory")
	err := authenticate(t, env.enclave, mallory, sealed, volID)
	if !errors.Is(err, ErrBadAuth) {
		t.Fatalf("unauthorized auth = %v, want ErrBadAuth", err)
	}
}

func TestAuthRejectsWrongSignature(t *testing.T) {
	owner := newIdentity(t, "owen")
	env, sealed, volID := newMountedVolume(t, owner)

	nonce, superBlob, err := env.enclave.BeginAuth(owner.pub, sealed, volID)
	if err != nil {
		t.Fatal(err)
	}
	// Signature over the wrong message (missing the supernode blob).
	_ = superBlob
	sig := ed25519.Sign(owner.priv, nonce)
	if err := env.enclave.CompleteAuth(sig); !errors.Is(err, ErrBadAuth) {
		t.Fatalf("wrong-message signature accepted: %v", err)
	}
}

func TestAuthNonceSingleUse(t *testing.T) {
	owner := newIdentity(t, "owen")
	env, sealed, volID := newMountedVolume(t, owner)

	nonce, superBlob, err := env.enclave.BeginAuth(owner.pub, sealed, volID)
	if err != nil {
		t.Fatal(err)
	}
	msg := append(append([]byte(nil), nonce...), superBlob...)
	sig := ed25519.Sign(owner.priv, msg)
	if err := env.enclave.CompleteAuth(sig); err != nil {
		t.Fatal(err)
	}
	// Replaying the same signature must fail: the challenge is consumed.
	if err := env.enclave.CompleteAuth(sig); !errors.Is(err, ErrBadAuth) {
		t.Fatalf("replayed CompleteAuth = %v, want ErrBadAuth", err)
	}
}

func TestSealedRootKeyBoundToPlatform(t *testing.T) {
	owner := newIdentity(t, "owen")
	env, sealed, volID := newMountedVolume(t, owner)

	// A different machine (same IAS, same store) cannot unseal.
	other := newTestEnv(t, env.ias, env.store)
	err := authenticate(t, other.enclave, owner, sealed, volID)
	if !errors.Is(err, ErrBadAuth) {
		t.Fatalf("cross-platform unseal = %v, want ErrBadAuth", err)
	}
}

func TestOperationsRequireAuth(t *testing.T) {
	env := newTestEnv(t, nil, nil)
	owner := newIdentity(t, "owen")
	if _, err := env.enclave.CreateVolume(owner.name, owner.pub); err != nil {
		t.Fatal(err)
	}
	// Volume exists but nobody authenticated.
	if err := env.enclave.Touch("/f"); !errors.Is(err, ErrNotAuthenticated) {
		t.Fatalf("Touch without auth = %v", err)
	}
	if _, err := env.enclave.ReadFile("/f"); !errors.Is(err, ErrNotAuthenticated) {
		t.Fatalf("ReadFile without auth = %v", err)
	}
	if _, err := env.enclave.AddUser("x", newIdentity(t, "x").pub); !errors.Is(err, ErrNotAuthenticated) {
		t.Fatalf("AddUser without auth = %v", err)
	}
}

func TestOperationsRequireMount(t *testing.T) {
	env := newTestEnv(t, nil, nil)
	if err := env.enclave.Touch("/f"); !errors.Is(err, ErrNotMounted) {
		t.Fatalf("Touch without volume = %v", err)
	}
}

func TestUserManagementOwnerOnly(t *testing.T) {
	owner := newIdentity(t, "owen")
	alice := newIdentity(t, "alice")
	env, sealed, volID := newMountedVolume(t, owner)

	if _, err := env.enclave.AddUser("alice", alice.pub); err != nil {
		t.Fatalf("AddUser: %v", err)
	}
	users, err := env.enclave.ListUsers()
	if err != nil || len(users) != 2 {
		t.Fatalf("ListUsers = %v, %v", users, err)
	}

	// Alice authenticates on her "machine" — same platform suffices here
	// since she has the sealed key locally in this test.
	if err := authenticate(t, env.enclave, alice, sealed, volID); err != nil {
		t.Fatalf("alice auth: %v", err)
	}
	// Alice is not the owner: user administration must be denied.
	if _, err := env.enclave.AddUser("bob", newIdentity(t, "bob").pub); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("non-owner AddUser = %v", err)
	}
	if err := env.enclave.RemoveUser("alice"); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("non-owner RemoveUser = %v", err)
	}
}

func TestRevokedUserCannotAuth(t *testing.T) {
	owner := newIdentity(t, "owen")
	alice := newIdentity(t, "alice")
	env, sealed, volID := newMountedVolume(t, owner)

	if _, err := env.enclave.AddUser("alice", alice.pub); err != nil {
		t.Fatal(err)
	}
	if err := authenticate(t, env.enclave, alice, sealed, volID); err != nil {
		t.Fatalf("pre-revocation auth: %v", err)
	}

	// Owner revokes alice: a single supernode update.
	if err := authenticate(t, env.enclave, owner, sealed, volID); err != nil {
		t.Fatal(err)
	}
	if err := env.enclave.RemoveUser("alice"); err != nil {
		t.Fatalf("RemoveUser: %v", err)
	}
	// Even with the sealed rootkey in hand, alice's auth now fails —
	// her key is gone from the supernode.
	if err := authenticate(t, env.enclave, alice, sealed, volID); !errors.Is(err, ErrBadAuth) {
		t.Fatalf("post-revocation auth = %v, want ErrBadAuth", err)
	}
}

func TestRollbackDetected(t *testing.T) {
	owner := newIdentity(t, "owen")
	env, _, _ := newMountedVolume(t, owner)

	// Snapshot the supernode, make an update, then restore the old blob
	// (a malicious server re-serving stale state).
	oldBlob, _, err := env.store.GetVersioned(SupernodeObjectName)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := env.enclave.AddUser("alice", newIdentity(t, "alice").pub); err != nil {
		t.Fatal(err)
	}
	if _, err := env.store.PutVersioned(SupernodeObjectName, oldBlob); err != nil {
		t.Fatal(err)
	}
	// The next supernode-touching operation must detect the rollback.
	_, err = env.enclave.AddUser("bob", newIdentity(t, "bob").pub)
	if !errors.Is(err, ErrStaleMetadata) {
		t.Fatalf("rollback = %v, want ErrStaleMetadata", err)
	}
}

func TestDirnodeRollbackDetected(t *testing.T) {
	owner := newIdentity(t, "owen")
	env, _, _ := newMountedVolume(t, owner)
	e := env.enclave

	if err := e.Mkdir("/docs"); err != nil {
		t.Fatal(err)
	}
	if err := e.Touch("/docs/a"); err != nil {
		t.Fatal(err)
	}
	// Find the /docs dirnode object: snapshot everything, mutate, diff.
	names, err := env.store.mem.List("")
	if err != nil {
		t.Fatal(err)
	}
	snapshot := make(map[string][]byte)
	for _, n := range names {
		b, _, err := env.store.GetVersioned(n)
		if err != nil {
			t.Fatal(err)
		}
		snapshot[n] = b
	}
	if err := e.Touch("/docs/b"); err != nil {
		t.Fatal(err)
	}
	// Roll every changed object back to the snapshot.
	for n, b := range snapshot {
		cur, _, err := env.store.GetVersioned(n)
		if err != nil {
			continue
		}
		if !bytes.Equal(cur, b) {
			if _, err := env.store.PutVersioned(n, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Accessing /docs must now trip the freshness check.
	_, err = e.Filldir("/docs")
	if !errors.Is(err, ErrStaleMetadata) {
		t.Fatalf("dirnode rollback = %v, want ErrStaleMetadata", err)
	}
}

func TestStatsAccounting(t *testing.T) {
	owner := newIdentity(t, "owen")
	env, _, _ := newMountedVolume(t, owner)
	e := env.enclave
	base, ec, oc := e.Stats(), e.SGX().EcallCount(), e.SGX().OcallCount()

	if err := e.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := e.Touch("/d/f"); err != nil {
		t.Fatal(err)
	}
	if err := e.SaveFile("/d/f", make([]byte, 1000), false); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	// Eight sealed objects, a directory counting as one: Mkdir seals /d
	// and the root directory, Touch the filenode and /d, SaveFile the
	// filenode, and each of the three commits the Merkle root.
	if n := st.MetadataFlushes - base.MetadataFlushes; n != 8 || st.MetadataBytesWritten == base.MetadataBytesWritten {
		t.Fatalf("metadata stats: %d flushes, %d bytes written; want 8 flushes",
			n, st.MetadataBytesWritten-base.MetadataBytesWritten)
	}
	// 1000 bytes fit the filenode: they are metadata bytes, no data object.
	if n := st.DataBytesWritten - base.DataBytesWritten; n != 0 {
		t.Fatalf("DataBytesWritten = %d after an inline write, want 0", n)
	}
	// A chunked file's bytes do not: they seal into one chunk of
	// ciphertext plus its 16-byte tag, and the filenode and the root are
	// sealed again.
	big := ChunkedFile(0)
	if err := e.SaveFile("/d/f", big, false); err != nil {
		t.Fatal(err)
	}
	st = e.Stats()
	if data, flushes := st.DataBytesWritten-base.DataBytesWritten, st.MetadataFlushes-base.MetadataFlushes; data != int64(len(big)+16) || flushes != 10 {
		t.Fatalf("DataBytesWritten = %d, flushes %d; want %d and 10", data, flushes, len(big)+16)
	}
	if e.SGX().EcallCount() == ec || e.SGX().OcallCount() == oc {
		t.Fatal("transition counters did not move")
	}
}
