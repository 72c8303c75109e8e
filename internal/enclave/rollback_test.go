// Adversarial rollback/fork suite for the Merkle-authenticated
// namespace (DESIGN.md §15). The store and the proof
// channel are both controlled by a malicious server here; every attack
// must fail closed with a typed error — ErrStaleObject for proven
// rollbacks and forks, ErrBadProof for proofs that do not verify —
// never be silently accepted.
//
// Where an attack needs a handle on the untrusted proof service, the
// suite stacks it (freshtree.New) under the enclave itself; elsewhere
// enclave.New stacks it, as it does for nexus.NewClient.
package enclave_test

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"

	"nexus/internal/backend"
	"nexus/internal/enclave"
	"nexus/internal/freshtree"
	"nexus/internal/merkle"
	"nexus/internal/metadata"
	"nexus/internal/obs"
	"nexus/internal/sgx"
	"nexus/internal/uuid"
)

// rollbackImage is the shared enclave measurement: sealed blobs only
// unseal across instances when platform and measurement both match.
var rollbackImage = sgx.Image{Name: "nexus-enclave", Version: 1, Code: []byte("nexus enclave code v1")}

// rawStore is a versioned in-memory object store with the two powers a
// malicious server has: substituting what a read returns (onGet) and
// rewinding its entire state to an earlier snapshot.
type rawStore struct {
	mu    sync.Mutex
	data  map[string][]byte
	vers  map[string]uint64
	onGet func(name string, data []byte, version uint64) ([]byte, uint64)
	// onPut, when set, decides each put's fate: whether it reaches the
	// store at all, and what the caller is told.
	onPut func(name string) (apply bool, err error)
}

func newRawStore() *rawStore {
	return &rawStore{data: map[string][]byte{}, vers: map[string]uint64{}}
}

func (s *rawStore) GetVersioned(name string) ([]byte, uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.data[name]
	if !ok {
		return nil, 0, fmt.Errorf("%w: %s", backend.ErrNotExist, name)
	}
	b = append([]byte(nil), b...)
	v := s.vers[name]
	if s.onGet != nil {
		b, v = s.onGet(name, b, v)
	}
	return b, v, nil
}

func (s *rawStore) PutVersioned(name string, data []byte) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	apply, err := true, error(nil)
	if s.onPut != nil {
		apply, err = s.onPut(name)
	}
	if apply {
		s.data[name] = append([]byte(nil), data...)
		s.vers[name]++
	}
	return s.vers[name], err
}

func (s *rawStore) Delete(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.data, name)
	delete(s.vers, name)
	return nil
}

func (s *rawStore) Lock(name string) (func(), error) { return func() {}, nil }

func (s *rawStore) setOnPut(f func(name string) (bool, error)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onPut = f
}

func (s *rawStore) setOnGet(f func(name string, data []byte, version uint64) ([]byte, uint64)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onGet = f
}

// freshnessObjects are the store names the staged stale replays leave
// alone: the sealed root cannot be forged (its own rollback is
// TestRollbackSealedRootEpochRegression's subject) and the checkpoint is
// only ever a source of proofs.
var freshnessObjects = map[string]bool{
	enclave.MerkleRootObjectName: true,
	freshtree.TreeObjectName:     true,
}

// replayStale serves snap's copy of every metadata object it holds in
// place of the current one.
func (s *rawStore) replayStale(snap storeSnapshot) {
	s.setOnGet(func(name string, b []byte, v uint64) ([]byte, uint64) {
		if old, ok := snap.data[name]; ok && !freshnessObjects[name] {
			return append([]byte(nil), old...), snap.vers[name]
		}
		return b, v
	})
}

type storeSnapshot struct {
	data map[string][]byte
	vers map[string]uint64
}

func (s *rawStore) snapshot() storeSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := storeSnapshot{data: map[string][]byte{}, vers: map[string]uint64{}}
	for n, b := range s.data {
		snap.data[n] = append([]byte(nil), b...)
		snap.vers[n] = s.vers[n]
	}
	return snap
}

// restore rewinds the store to snap, except for names in keep (objects
// the attacker chooses not to — or cannot usefully — regress).
func (s *rawStore) restore(snap storeSnapshot, keep ...string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	kept := map[string]bool{}
	for _, n := range keep {
		kept[n] = true
	}
	for n := range s.data {
		if !kept[n] {
			delete(s.data, n)
			delete(s.vers, n)
		}
	}
	for n, b := range snap.data {
		if !kept[n] {
			s.data[n] = append([]byte(nil), b...)
			s.vers[n] = snap.vers[n]
		}
	}
}

// proofMangler sits between the enclave and the honest proof store: the
// malicious proof channel. Its inner store is swappable (a "server
// restart" onto different state under a live client), and mangle
// rewrites every served proof.
type proofMangler struct {
	mu     sync.Mutex
	inner  enclave.FreshnessProofStore
	mangle func(id uuid.UUID, proof []byte) []byte
}

func newProofMangler(inner enclave.FreshnessProofStore) *proofMangler {
	return &proofMangler{inner: inner}
}

func (m *proofMangler) get() (enclave.FreshnessProofStore, func(uuid.UUID, []byte) []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.inner, m.mangle
}

func (m *proofMangler) setInner(inner enclave.FreshnessProofStore) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.inner = inner
}

func (m *proofMangler) setMangle(f func(uuid.UUID, []byte) []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.mangle = f
}

func (m *proofMangler) GetVersioned(name string) ([]byte, uint64, error) {
	inner, _ := m.get()
	return inner.GetVersioned(name)
}

func (m *proofMangler) PutVersioned(name string, data []byte) (uint64, error) {
	inner, _ := m.get()
	return inner.PutVersioned(name, data)
}

func (m *proofMangler) Delete(name string) error {
	inner, _ := m.get()
	return inner.Delete(name)
}

func (m *proofMangler) Lock(name string) (func(), error) {
	inner, _ := m.get()
	return inner.Lock(name)
}

func (m *proofMangler) FreshnessProof(id uuid.UUID, epoch uint64) ([]byte, error) {
	inner, mangle := m.get()
	p, err := inner.FreshnessProof(id, epoch)
	if err != nil {
		return nil, err
	}
	if mangle != nil {
		p = mangle(id, p)
	}
	return p, nil
}

func (m *proofMangler) FreshnessUpdate(epoch uint64, updates []merkle.LeafUpdate) ([][]byte, error) {
	inner, _ := m.get()
	return inner.FreshnessUpdate(epoch, updates)
}

// merkleClient is one mounted NEXUS client over a proof-serving store,
// with handles on every layer the adversary controls.
type merkleClient struct {
	// bucketSize, when set before newEnclave, overrides the default
	// directory bucket size.
	bucketSize uint32
	ias        *sgx.AttestationService
	plat       *sgx.Platform
	raw        *rawStore
	proofs     *proofMangler
	reg        *obs.Registry
	encl       *enclave.Enclave
	sealed     []byte
	volID      uuid.UUID
	pub        ed25519.PublicKey
	priv       ed25519.PrivateKey
}

func newMerkleClient(t *testing.T) *merkleClient {
	t.Helper()
	c := &merkleClient{}
	c.init(t)
	return c
}

// init builds the stack, creates the volume and mounts it.
func (c *merkleClient) init(t *testing.T) {
	t.Helper()
	ias, err := sgx.NewAttestationService()
	if err != nil {
		t.Fatal(err)
	}
	plat, err := sgx.NewPlatform(sgx.PlatformConfig{}, ias)
	if err != nil {
		t.Fatal(err)
	}
	c.ias, c.plat, c.raw, c.reg = ias, plat, newRawStore(), obs.NewRegistry()
	c.proofs = newProofMangler(freshtree.New(c.raw))
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	c.pub, c.priv = pub, priv
	c.encl = c.newEnclave(t, c.proofs)
	sealed, err := c.encl.CreateVolume("owen", pub)
	if err != nil {
		t.Fatal(err)
	}
	c.sealed = sealed
	if c.volID, err = c.encl.VolumeUUID(); err != nil {
		t.Fatal(err)
	}
	if err := c.mount(c.encl); err != nil {
		t.Fatal(err)
	}
}

// newEnclave stands up a fresh enclave instance (same platform and
// measurement, so sealed state carries over) on the given store.
func (c *merkleClient) newEnclave(t *testing.T, store enclave.ObjectStore) *enclave.Enclave {
	t.Helper()
	container, err := c.plat.CreateEnclave(rollbackImage)
	if err != nil {
		t.Fatal(err)
	}
	e, err := enclave.New(enclave.Config{
		SGX:        container,
		Store:      store,
		IAS:        c.ias,
		Obs:        c.reg,
		BucketSize: c.bucketSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Drain after every mutation: the attacks below replay and roll back
	// what each op left on the store.
	e.SetWritebackMaxOps(1)
	return e
}

func (c *merkleClient) mount(e *enclave.Enclave) error {
	nonce, blob, err := e.BeginAuth(c.pub, c.sealed, c.volID)
	if err != nil {
		return err
	}
	msg := append(append([]byte(nil), nonce...), blob...)
	return e.CompleteAuth(ed25519.Sign(c.priv, msg))
}

// TestMerkleModeNormalOperation is the sanity baseline: ordinary
// operations succeed, proofs are verified (the counters move), and a
// fresh enclave instance re-mounts and reads everything back.
func TestMerkleModeNormalOperation(t *testing.T) {
	c := newMerkleClient(t)
	if err := c.encl.Mkdir("/docs"); err != nil {
		t.Fatal(err)
	}
	if err := c.encl.Touch("/docs/f"); err != nil {
		t.Fatal(err)
	}
	if err := c.encl.SaveFile("/docs/f", []byte("payload"), false); err != nil {
		t.Fatal(err)
	}
	c.encl.DropCaches()
	got, err := c.encl.ReadFile("/docs/f")
	if err != nil || string(got) != "payload" {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
	if n := c.reg.CounterValue("enclave_freshness_proofs_total"); n == 0 {
		t.Fatal("no proofs verified")
	}
	if n := c.reg.CounterValue("enclave_freshness_proof_bytes_total"); n == 0 {
		t.Fatal("no proof bytes accounted")
	}
	if n := c.reg.CounterValue("enclave_freshness_root_updates_total"); n == 0 {
		t.Fatal("no root updates committed")
	}

	// Second mount from sealed state only: the commitment round-trips.
	e2 := c.newEnclave(t, c.proofs)
	if err := c.mount(e2); err != nil {
		t.Fatalf("re-mount: %v", err)
	}
	got, err = e2.ReadFile("/docs/f")
	if err != nil || string(got) != "payload" {
		t.Fatalf("re-mounted ReadFile = %q, %v", got, err)
	}
}

// TestRollbackStaleObjectReplay is the basic rollback: the server
// replays earlier (consistent, correctly sealed) snapshots of
// individual metadata objects to a client that has since written newer
// versions. The merkle leaf pins each object's minimum version, so the
// replay is proven stale.
func TestRollbackStaleObjectReplay(t *testing.T) {
	c := newMerkleClient(t)
	if err := c.encl.Mkdir("/docs"); err != nil {
		t.Fatal(err)
	}
	if err := c.encl.Touch("/docs/old"); err != nil {
		t.Fatal(err)
	}
	snap := c.raw.snapshot()
	if err := c.encl.Touch("/docs/new"); err != nil {
		t.Fatal(err)
	}

	c.encl.DropCaches()
	c.raw.setOnGet(func(name string, b []byte, v uint64) ([]byte, uint64) {
		if old, ok := snap.data[name]; ok {
			return append([]byte(nil), old...), snap.vers[name]
		}
		return b, v
	})
	_, err := c.encl.Filldir("/docs")
	if !errors.Is(err, enclave.ErrStaleObject) {
		t.Fatalf("stale replay = %v, want ErrStaleObject", err)
	}
	if !errors.Is(err, enclave.ErrStaleMetadata) {
		t.Fatalf("ErrStaleObject must wrap ErrStaleMetadata, got %v", err)
	}

	// Fail closed, not fail broken: honest service resumes.
	c.raw.setOnGet(nil)
	c.encl.DropCaches()
	if _, err := c.encl.Filldir("/docs"); err != nil {
		t.Fatalf("honest reads after attack: %v", err)
	}
}

// TestRollbackWholeVolumeFreshClient restores a full earlier volume
// state — data, tree snapshot, everything except the sealed root
// commitment, which the attacker cannot forge — then restarts the
// server plumbing and mounts a brand-new client. The commitment is
// ahead of everything the store can prove, so the mount fails closed.
func TestRollbackWholeVolumeFreshClient(t *testing.T) {
	c := newMerkleClient(t)
	if err := c.encl.Mkdir("/docs"); err != nil {
		t.Fatal(err)
	}
	if err := c.encl.Touch("/docs/old"); err != nil {
		t.Fatal(err)
	}
	snap := c.raw.snapshot()
	if err := c.encl.Touch("/docs/new"); err != nil {
		t.Fatal(err)
	}

	c.raw.restore(snap, enclave.MerkleRootObjectName)
	c.proofs.setInner(freshtree.New(c.raw))
	e2 := c.newEnclave(t, c.proofs)
	err := c.mount(e2)
	if err == nil {
		_, err = e2.Filldir("/docs")
	}
	if !errors.Is(err, enclave.ErrBadProof) && !errors.Is(err, enclave.ErrStaleObject) {
		t.Fatalf("whole-volume rollback = %v, want ErrBadProof or ErrStaleObject", err)
	}
}

// TestRollbackSealedRootEpochRegression rolls back everything
// *including* the sealed root to a client that has already observed a
// later epoch: the in-enclave monotonic counter catches it.
func TestRollbackSealedRootEpochRegression(t *testing.T) {
	c := newMerkleClient(t)
	if err := c.encl.Mkdir("/docs"); err != nil {
		t.Fatal(err)
	}
	snap := c.raw.snapshot()
	if err := c.encl.Touch("/docs/f"); err != nil {
		t.Fatal(err)
	}

	c.raw.restore(snap)
	c.proofs.setInner(freshtree.New(c.raw))
	c.encl.DropCaches()
	_, err := c.encl.Filldir("/docs")
	if !errors.Is(err, enclave.ErrStaleObject) {
		t.Fatalf("sealed-root regression = %v, want ErrStaleObject", err)
	}
}

// TestForkedHistoriesDetected forks the volume: the server rewinds the
// store and lets a second client build a divergent history to the same
// epoch, then serves that history back to the first client. Same
// epoch, different root — the fork signature — must be detected the
// moment the histories meet.
func TestForkedHistoriesDetected(t *testing.T) {
	c := newMerkleClient(t)
	if err := c.encl.Mkdir("/docs"); err != nil {
		t.Fatal(err)
	}
	snap := c.raw.snapshot()

	// History A: our client keeps writing (and remembers epoch+root).
	if err := c.encl.Touch("/docs/ours"); err != nil {
		t.Fatal(err)
	}

	// History B: the server rewinds and a second client performs a
	// symmetric operation, advancing to the same epoch with a
	// different root.
	c.raw.restore(snap)
	eB := c.newEnclave(t, c.raw)
	if err := c.mount(eB); err != nil {
		t.Fatalf("fork client mount: %v", err)
	}
	if err := eB.Touch("/docs/theirs"); err != nil {
		t.Fatal(err)
	}

	// The server now serves history B to client A.
	c.proofs.setInner(freshtree.New(c.raw))
	c.encl.DropCaches()
	_, err := c.encl.Filldir("/docs")
	if !errors.Is(err, enclave.ErrStaleObject) {
		t.Fatalf("fork = %v, want ErrStaleObject (fork detected)", err)
	}
}

// TestProofTamperingFailsClosed drives every malformed-proof shape
// through the live proof channel: truncation, corruption, splicing a
// stale leaf version under the fresh root, reordering the path. All
// must surface ErrBadProof, and honest service must resume afterwards.
func TestProofTamperingFailsClosed(t *testing.T) {
	c := newMerkleClient(t)
	if err := c.encl.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	// Enough objects that proofs carry real paths.
	for i := 0; i < 8; i++ {
		if err := c.encl.Touch(fmt.Sprintf("/d/f%d", i)); err != nil {
			t.Fatal(err)
		}
	}

	remangle := func(raw []byte, f func(p *merkle.Proof)) []byte {
		p, err := merkle.DecodeProof(raw)
		if err != nil {
			return raw
		}
		f(p)
		return p.Encode()
	}
	cases := []struct {
		name   string
		mangle func(id uuid.UUID, raw []byte) []byte
	}{
		{"truncated", func(_ uuid.UUID, raw []byte) []byte { return raw[:len(raw)-1] }},
		{"empty", func(_ uuid.UUID, _ []byte) []byte { return nil }},
		{"corrupted", func(_ uuid.UUID, raw []byte) []byte {
			out := append([]byte(nil), raw...)
			out[len(out)-1] ^= 0x40
			return out
		}},
		{"stale leaf spliced under fresh root", func(_ uuid.UUID, raw []byte) []byte {
			return remangle(raw, func(p *merkle.Proof) {
				if p.HasLeaf && p.LeafVersion > 1 {
					p.LeafVersion--
				} else {
					p.LeafVersion += 7
				}
			})
		}},
		{"path reordered", func(_ uuid.UUID, raw []byte) []byte {
			return remangle(raw, func(p *merkle.Proof) {
				if len(p.Steps) >= 2 {
					p.Steps[0], p.Steps[1] = p.Steps[1], p.Steps[0]
				} else {
					p.Steps = append(p.Steps, p.Steps...)
				}
			})
		}},
		{"sibling hash flipped", func(_ uuid.UUID, raw []byte) []byte {
			return remangle(raw, func(p *merkle.Proof) {
				if len(p.Steps) > 0 {
					p.Steps[0].Sibling[0] ^= 1
				} else {
					p.HasLeaf = !p.HasLeaf
				}
			})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c.proofs.setMangle(tc.mangle)
			c.encl.DropCaches()
			_, err := c.encl.Filldir("/d")
			if !errors.Is(err, enclave.ErrBadProof) {
				t.Fatalf("%s proof = %v, want ErrBadProof", tc.name, err)
			}
			c.proofs.setMangle(nil)
			c.encl.DropCaches()
			if _, err := c.encl.Filldir("/d"); err != nil {
				t.Fatalf("honest reads after %s: %v", tc.name, err)
			}
		})
	}
}

// TestProofTamperingOnReproofFailsClosed: the records a widening-only
// commit left waiting are proved again when the root moved before the
// commit that carries them (reproveLocked). The owner admits zoe, which
// leaves the supernode's record waiting; a peer's commit moves the root;
// the owner's next commit is served a re-proof of the supernode whose
// sibling hash is flipped. It fails with ErrBadProof and puts no root,
// and the next honest commit lands.
func TestProofTamperingOnReproofFailsClosed(t *testing.T) {
	c := newMerkleClient(t)
	for i := 0; i < 4; i++ { // enough leaves that proofs carry real paths
		if err := c.encl.Mkdir(fmt.Sprintf("/d%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	zoe, _, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.encl.AddUser("zoe", zoe); err != nil {
		t.Fatal(err)
	}
	peer := c.newEnclave(t, freshtree.New(c.raw))
	if err := c.mount(peer); err != nil {
		t.Fatal(err)
	}
	if err := peer.Mkdir("/peer"); err != nil {
		t.Fatal(err)
	}
	peerRoot := c.raw.snapshot().data[enclave.MerkleRootObjectName]

	c.proofs.setMangle(func(id uuid.UUID, raw []byte) []byte {
		if id != c.volID {
			return raw
		}
		p, err := merkle.DecodeProof(raw)
		if err != nil || len(p.Steps) == 0 {
			t.Errorf("the supernode's re-proof has no path to forge: %v", err)
			return raw
		}
		p.Steps[0].Sibling[0] ^= 1
		return p.Encode()
	})
	if err := c.encl.SyncMetadata(); !errors.Is(err, enclave.ErrBadProof) {
		t.Fatalf("a commit served a forged re-proof = %v, want ErrBadProof", err)
	}
	if root := c.raw.snapshot().data[enclave.MerkleRootObjectName]; !bytes.Equal(root, peerRoot) {
		t.Fatal("a commit served a forged re-proof put the root")
	}
	c.proofs.setMangle(nil)
	if err := c.encl.SyncMetadata(); err != nil {
		t.Fatalf("the honest commit after a forged re-proof: %v", err)
	}
	if root := c.raw.snapshot().data[enclave.MerkleRootObjectName]; bytes.Equal(root, peerRoot) {
		t.Fatal("the honest commit after a forged re-proof put no root")
	}
}

// TestRootObjectVanishes deletes the sealed root out from under a
// client that has already committed epochs (and garbles proofs so the
// client is forced to re-read the commitment).
func TestRootObjectVanishes(t *testing.T) {
	c := newMerkleClient(t)
	if err := c.encl.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := c.raw.Delete(enclave.MerkleRootObjectName); err != nil {
		t.Fatal(err)
	}
	c.proofs.setMangle(func(_ uuid.UUID, _ []byte) []byte { return nil })
	c.encl.DropCaches()
	_, err := c.encl.Filldir("/d")
	if !errors.Is(err, enclave.ErrStaleObject) {
		t.Fatalf("vanished root = %v, want ErrStaleObject", err)
	}
}

// phraseStore fails the fetch of one object with an error that only
// *says* the object does not exist: untyped, like an AFS "server error"
// frame whose text the server chooses.
type phraseStore struct {
	*proofMangler
	name string
	err  error
}

func (s *phraseStore) GetVersioned(name string) ([]byte, uint64, error) {
	if name == s.name {
		return nil, 0, s.err
	}
	return s.proofMangler.GetVersioned(name)
}

// TestUntypedDoesNotExistIsNotAbsence mounts a fresh client through a
// store that answers the sealed root's fetch with such an error. Only
// the typed backend.ErrNotExist means absence; reading the phrase as
// absence would let whoever words the error make the client adopt the
// empty root commitment. The mount must fail with the store's error.
func TestUntypedDoesNotExistIsNotAbsence(t *testing.T) {
	c := newMerkleClient(t)
	if err := c.encl.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	said := errors.New("server error: backend: object does not exist: " + enclave.MerkleRootObjectName)
	e := c.newEnclave(t, &phraseStore{proofMangler: c.proofs, name: enclave.MerkleRootObjectName, err: said})
	if err := c.mount(e); !errors.Is(err, said) {
		t.Fatalf("mount over a store that words an error as absence = %v, want that error", err)
	}
}

// TestRootObjectTampered flips one bit of the sealed root: the rootkey
// AEAD rejects it the next time the commitment is re-read (every root
// update re-reads it under the store lock). The high-water drain that
// hits it is best-effort, so the mutation itself succeeds and the
// integrity error surfaces at the next barrier; the failed drain keeps
// its freshness updates pending, so once the honest bytes are back one
// barrier commits them and a fresh mount sees the new directory.
func TestRootObjectTampered(t *testing.T) {
	c := newMerkleClient(t)
	if err := c.encl.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	honest, honestVersion, err := c.raw.GetVersioned(enclave.MerkleRootObjectName)
	if err != nil {
		t.Fatal(err)
	}
	c.raw.setOnGet(func(name string, b []byte, v uint64) ([]byte, uint64) {
		if name == enclave.MerkleRootObjectName {
			b[len(b)-1] ^= 1
		}
		return b, v
	})
	if err := c.encl.Mkdir("/d2"); err != nil {
		t.Fatalf("Mkdir over a tampered root = %v, want the error deferred to the barrier", err)
	}
	if err := c.encl.SyncMetadata(); !errors.Is(err, metadata.ErrTampered) {
		t.Fatalf("barrier over a tampered root = %v, want ErrTampered", err)
	}
	c.raw.setOnGet(nil)
	if cur, _, err := c.raw.GetVersioned(enclave.MerkleRootObjectName); err != nil || !bytes.Equal(cur, honest) {
		t.Fatalf("the rejected update replaced the sealed root (err %v)", err)
	}

	if err := c.encl.SyncMetadata(); err != nil {
		t.Fatalf("barrier after the honest root returned: %v", err)
	}
	if _, v, err := c.raw.GetVersioned(enclave.MerkleRootObjectName); err != nil || v != honestVersion+1 {
		t.Fatalf("sealed root at version %d (err %v), want the honest successor %d", v, err, honestVersion+1)
	}
	fresh := c.newEnclave(t, c.proofs)
	if err := c.mount(fresh); err != nil {
		t.Fatalf("fresh mount after recovery: %v", err)
	}
	if _, err := fresh.Filldir("/d2"); err != nil {
		t.Fatalf("fresh mount cannot list /d2 after recovery: %v", err)
	}
	c.encl.DropCaches()
	if _, err := c.encl.Filldir("/d"); err != nil {
		t.Fatalf("honest reads after tamper: %v", err)
	}
}

// rootFrame splits the root object as the store holds it into the
// enclave's sealed blob and the unsealed trailer freshtree.Store
// appends (DESIGN.md §15.3: trailer ‖ its length ‖ magic).
func rootFrame(t *testing.T, obj []byte) (sealed, trailer []byte) {
	t.Helper()
	if len(obj) < 8 {
		t.Fatalf("root object of %d bytes has no frame footer", len(obj))
	}
	n := int(binary.LittleEndian.Uint32(obj[len(obj)-8:]))
	if n+8 > len(obj) {
		t.Fatalf("root object of %d bytes claims a %d-byte trailer", len(obj), n)
	}
	return obj[:len(obj)-8-n], obj[len(obj)-8-n:]
}

// TestRootTrailerTamperingFailsClosed rewrites the unsealed half of the
// root object — the list of leaves changed since the checkpoint — under
// a client that mounts fresh, with no memory to fall back on. The
// trailer is not authenticated and does not need to be: a damaged one
// yields a tree whose proofs do not verify against the sealed root, or
// no tree at all, and the mount fails closed. Nothing an attacker writes
// there makes an older metadata version acceptable.
func TestRootTrailerTamperingFailsClosed(t *testing.T) {
	c := newMerkleClient(t)
	if err := c.encl.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	// Drain until the tree has a checkpoint and the root a delta on it.
	var older []byte
	for i := 0; ; i++ {
		if i > 64 {
			t.Fatal("64 drains wrote no checkpoint")
		}
		if err := c.encl.Touch(fmt.Sprintf("/d/f%d", i)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.raw.GetVersioned(freshtree.TreeObjectName); err == nil {
			if older != nil {
				break
			}
			if older, _, err = c.raw.GetVersioned(enclave.MerkleRootObjectName); err != nil {
				t.Fatal(err)
			}
		}
	}
	snap := c.raw.snapshot()
	if err := c.encl.SaveFile("/d/f0", []byte("rewritten"), false); err != nil {
		t.Fatal(err)
	}
	honest, _, err := c.raw.GetVersioned(enclave.MerkleRootObjectName)
	if err != nil {
		t.Fatal(err)
	}
	sealed, trailer := rootFrame(t, honest)
	_, oldTrailer := rootFrame(t, older)
	// Trailer layout: format(1) base(8) tip(8) spent(8) count(4), then
	// 24-byte entries, then the 8-byte footer.
	edit := func(f func(tr []byte)) []byte {
		tr := append([]byte(nil), trailer...)
		f(tr)
		return append(append([]byte(nil), sealed...), tr...)
	}
	cases := map[string][]byte{
		"truncated":                 honest[:len(honest)-5],
		"bit flipped in the footer": edit(func(tr []byte) { tr[len(tr)-1] ^= 1 }),
		"bit flipped in a version":  edit(func(tr []byte) { tr[len(tr)-8-8] ^= 1 }),
		"bit flipped in a leaf id":  edit(func(tr []byte) { tr[len(tr)-8-24] ^= 0x80 }),
		"entry count lowered":       edit(func(tr []byte) { tr[25]-- }),
		"older root's trailer":      append(append([]byte(nil), sealed...), oldTrailer...),
		"base past the checkpoint":  edit(func(tr []byte) { copy(tr[1:9], tr[9:17]) }),
		"tip lowered":               edit(func(tr []byte) { tr[9]-- }),
	}
	for name, blob := range cases {
		t.Run(name, func(t *testing.T) {
			// Serve the damaged root together with the older, correctly
			// sealed metadata objects it might vouch for.
			c.raw.setOnGet(func(n string, b []byte, v uint64) ([]byte, uint64) {
				if n == enclave.MerkleRootObjectName {
					return append([]byte(nil), blob...), v
				}
				if old, ok := snap.data[n]; ok && !freshnessObjects[n] {
					return append([]byte(nil), old...), snap.vers[n]
				}
				return b, v
			})
			defer c.raw.setOnGet(nil)
			e := c.newEnclave(t, c.raw)
			err := c.mount(e)
			if err == nil {
				// The file whose older filenode is being replayed.
				_, err = e.ReadFile("/d/f0")
			}
			if !errors.Is(err, enclave.ErrBadProof) && !errors.Is(err, enclave.ErrStaleObject) && !errors.Is(err, metadata.ErrTampered) {
				t.Fatalf("mount over a tampered trailer = %v, want ErrBadProof, ErrStaleObject or ErrTampered", err)
			}
		})
	}
	// The honest frame serves a fresh mount, with the current objects.
	e := c.newEnclave(t, c.raw)
	if err := c.mount(e); err != nil {
		t.Fatalf("fresh mount over the honest root: %v", err)
	}
	if got, err := e.ReadFile("/d/f0"); err != nil || string(got) != "rewritten" {
		t.Fatalf("fresh mount reads /d/f0 = %q, %v", got, err)
	}
}

// TestRootPutFaultsConverge fails the one put that now commits both the
// root and the tree state behind it, two ways: the put never reaches the
// store, and the put lands but its reply is lost, so the server is an
// epoch ahead of what the client believes. Either way the mutation is
// acknowledged (the drain is best-effort). Re-reading the root under its
// lock is what tells the two cases apart: when the put never landed the
// barrier commits the waiting records again and reports the fault; when
// it landed, the barrier re-proves them against the root it finds, every
// leaf is already raised, and it has nothing left to commit. The next
// barrier commits everything pending, and a fresh mount finds every
// directory.
func TestRootPutFaultsConverge(t *testing.T) {
	for _, lost := range []bool{false, true} {
		t.Run(fmt.Sprintf("lost=%v", lost), func(t *testing.T) {
			c := newMerkleClient(t)
			if err := c.encl.Mkdir("/a"); err != nil {
				t.Fatal(err)
			}
			before, beforeVersion, err := c.raw.GetVersioned(enclave.MerkleRootObjectName)
			if err != nil {
				t.Fatal(err)
			}
			fault := errors.New("root put fault")
			c.raw.setOnPut(func(name string) (bool, error) {
				if name == enclave.MerkleRootObjectName {
					return lost, fault
				}
				return true, nil
			})
			if err := c.encl.Mkdir("/b"); err != nil {
				t.Fatalf("Mkdir over a failing root put = %v, want the error deferred to the barrier", err)
			}
			if err := c.encl.SyncMetadata(); lost && err != nil || !lost && !errors.Is(err, fault) {
				t.Fatalf("barrier over a failing root put (lost reply %v) = %v", lost, err)
			}
			c.raw.setOnPut(nil)
			after, afterVersion, err := c.raw.GetVersioned(enclave.MerkleRootObjectName)
			if err != nil {
				t.Fatal(err)
			}
			if lost == bytes.Equal(before, after) {
				t.Fatalf("root object changed = %v with lost = %v: the fault under test did not occur", !bytes.Equal(before, after), lost)
			}

			// The client can still prove what it has committed.
			c.encl.DropCaches()
			if _, err := c.encl.Filldir("/a"); err != nil {
				t.Fatalf("reads between the fault and the retry: %v", err)
			}
			if err := c.encl.Mkdir("/c"); err != nil {
				t.Fatal(err)
			}
			if err := c.encl.SyncMetadata(); err != nil {
				t.Fatalf("barrier after the fault cleared: %v", err)
			}
			if _, v, err := c.raw.GetVersioned(enclave.MerkleRootObjectName); err != nil || v <= afterVersion || v <= beforeVersion {
				t.Fatalf("root object at version %d after the retry (err %v), was %d", v, err, afterVersion)
			}
			fresh := c.newEnclave(t, c.raw)
			if err := c.mount(fresh); err != nil {
				t.Fatalf("fresh mount after recovery: %v", err)
			}
			for _, dir := range []string{"/a", "/b", "/c"} {
				if _, err := fresh.Filldir(dir); err != nil {
					t.Fatalf("fresh mount cannot list %s: %v", dir, err)
				}
			}
		})
	}
}

// TestMerkleAdoptsVolumeWrittenWithoutProofs mounts a volume whose
// objects carry no tree and no sealed root — what a pre-Merkle build left
// behind, stray "freshness" table included, made here by deleting both
// freshness objects from a volume written with them: every load passes on
// an absence proof, and objects enter the tree as they are next flushed.
func TestMerkleAdoptsVolumeWrittenWithoutProofs(t *testing.T) {
	c := newMerkleClient(t)
	raw := newRawStore()
	plain := c.newEnclave(t, raw)
	var err error
	if c.sealed, err = plain.CreateVolume("owen", c.pub); err != nil {
		t.Fatal(err)
	}
	if c.volID, err = plain.VolumeUUID(); err != nil {
		t.Fatal(err)
	}
	if err := c.mount(plain); err != nil {
		t.Fatal(err)
	}
	if err := plain.Mkdir("/docs"); err != nil {
		t.Fatal(err)
	}
	if err := plain.Touch("/docs/f"); err != nil {
		t.Fatal(err)
	}
	for name := range freshnessObjects {
		if err := raw.Delete(name); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := raw.PutVersioned("freshness", []byte("a flat table nobody reads")); err != nil {
		t.Fatal(err)
	}

	e := c.newEnclave(t, raw)
	if err := c.mount(e); err != nil {
		t.Fatalf("mounting the proof-less volume: %v", err)
	}
	if err := e.SaveFile("/docs/f", []byte("adopted"), false); err != nil {
		t.Fatal(err)
	}
	snap := raw.snapshot()
	if err := e.SaveFile("/docs/f", []byte("adopted, then rewritten"), false); err != nil {
		t.Fatal(err)
	}
	// The filenode is in the tree now: replaying its older copy fails.
	raw.replayStale(snap)
	e.DropCaches()
	if _, err := e.ReadFile("/docs/f"); !errors.Is(err, enclave.ErrStaleObject) {
		t.Fatalf("stale replay on the adopted volume = %v, want ErrStaleObject", err)
	}
}

// changedObjects lists the metadata objects whose bytes differ between
// snap and the store now: rewritten ones and, with added, new ones.
func (s *rawStore) changedObjects(snap storeSnapshot, added bool) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var names []string
	for n, b := range s.data {
		old, ok := snap.data[n]
		if freshnessObjects[n] || ok == added || bytes.Equal(old, b) {
			continue
		}
		names = append(names, n)
	}
	return names
}

// TestDirectoryIsOneObjectUnderOneLeaf: a directory that fits bucket 0 is
// a single store object — ACL and entries under one AEAD, one freshness
// leaf — so an update rewrites exactly that object and creates none, and
// the object replayed one version back is a proven rollback.
func TestDirectoryIsOneObjectUnderOneLeaf(t *testing.T) {
	c := newMerkleClient(t)
	if err := c.encl.Mkdir("/docs"); err != nil {
		t.Fatal(err)
	}
	if err := c.encl.Symlink("target", "/docs/old"); err != nil {
		t.Fatal(err)
	}
	snap := c.raw.snapshot()
	if err := c.encl.Symlink("target", "/docs/new"); err != nil {
		t.Fatal(err)
	}
	rewritten := c.raw.changedObjects(snap, false)
	if created := c.raw.changedObjects(snap, true); len(rewritten) != 1 || len(created) != 0 {
		t.Fatalf("one insert rewrote %v and created %v, want the directory's one object rewritten and nothing created", rewritten, created)
	}

	c.encl.DropCaches()
	dir := rewritten[0]
	c.raw.setOnGet(func(name string, b []byte, v uint64) ([]byte, uint64) {
		if name == dir {
			return append([]byte(nil), snap.data[name]...), snap.vers[name]
		}
		return b, v
	})
	if _, err := c.encl.Filldir("/docs"); !errors.Is(err, enclave.ErrStaleObject) {
		t.Fatalf("directory object rolled back one version = %v, want ErrStaleObject", err)
	}
	c.raw.setOnGet(nil)
	c.encl.DropCaches()
	if entries, err := c.encl.Filldir("/docs"); err != nil || len(entries) != 2 {
		t.Fatalf("honest reads after the attack: %d entries, %v", len(entries), err)
	}
}

// TestOverflowBucketSwapAndRollback: what does not fit bucket 0 lives in
// overflow buckets that stay bound to their directory by the MAC the main
// object records and the parent in their preamble. A bucket served in
// place of another directory's, or an earlier version of the same bucket
// — under the very name the current one has, since a rewrite lands on the
// slot retired a flush before — is rejected, persistently.
func TestOverflowBucketSwapAndRollback(t *testing.T) {
	c := &merkleClient{bucketSize: 2}
	c.init(t)
	// fill makes dir with two entries in bucket 0 and one in an overflow
	// bucket, whose store name it returns.
	fill := func(dir string) string {
		t.Helper()
		if err := c.encl.Mkdir(dir); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"/a", "/b"} {
			if err := c.encl.Symlink("target", dir+name); err != nil {
				t.Fatal(err)
			}
		}
		snap := c.raw.snapshot()
		if err := c.encl.Symlink("target", dir+"/c"); err != nil {
			t.Fatal(err)
		}
		created := c.raw.changedObjects(snap, true)
		if len(created) != 1 {
			t.Fatalf("the third entry of %s created %v, want one overflow bucket", dir, created)
		}
		return created[0]
	}
	left, right := fill("/left"), fill("/right")

	serve := func(name string, blob []byte) {
		c.encl.DropCaches()
		c.raw.setOnGet(func(n string, b []byte, v uint64) ([]byte, uint64) {
			if n == name {
				return append([]byte(nil), blob...), v
			}
			return b, v
		})
	}
	rightBlob, _, err := c.raw.GetVersioned(right)
	if err != nil {
		t.Fatal(err)
	}
	serve(left, rightBlob)
	if _, err := c.encl.Filldir("/left"); !errors.Is(err, metadata.ErrBucketMACMismatch) {
		t.Fatalf("bucket of /right served for /left = %v, want ErrBucketMACMismatch", err)
	}
	// Bucket 0 is not behind that bucket.
	if _, err := c.encl.Lookup("/left/a"); err != nil {
		t.Fatalf("Lookup in bucket 0 while the overflow bucket is withheld: %v", err)
	}

	// Two rewrites of /left's overflow bucket: away from its name, and
	// back onto it.
	c.raw.setOnGet(nil)
	c.encl.DropCaches()
	firstBlob, _, err := c.raw.GetVersioned(left)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.encl.Remove("/left/c"); err != nil {
		t.Fatal(err)
	}
	if err := c.encl.Symlink("target", "/left/d"); err != nil {
		t.Fatal(err)
	}
	if blob, _, err := c.raw.GetVersioned(left); err != nil || bytes.Equal(blob, firstBlob) {
		t.Fatalf("the second rewrite did not land on the retired slot %s (%v)", left, err)
	}
	serve(left, firstBlob)
	if _, err := c.encl.Filldir("/left"); !errors.Is(err, metadata.ErrBucketMACMismatch) {
		t.Fatalf("overflow bucket rolled back two versions = %v, want ErrBucketMACMismatch", err)
	}
	c.raw.setOnGet(nil)
	c.encl.DropCaches()
	if entries, err := c.encl.Filldir("/left"); err != nil || len(entries) != 3 {
		t.Fatalf("honest reads after the attacks: %d entries, %v", len(entries), err)
	}
}

// TestOverflowStartsAtEntry129: at the default bucket size a directory is
// one object through 128 entries; the 129th creates overflow bucket 1,
// and a fresh mount lists all 129.
func TestOverflowStartsAtEntry129(t *testing.T) {
	c := newMerkleClient(t)
	if err := c.encl.Mkdir("/flat"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < metadata.DefaultBucketSize+1; i++ {
		snap := c.raw.snapshot()
		if err := c.encl.Symlink("target", fmt.Sprintf("/flat/e%03d", i)); err != nil {
			t.Fatal(err)
		}
		want := 0
		if i == metadata.DefaultBucketSize {
			want = 1
		}
		if created := c.raw.changedObjects(snap, true); len(created) != want {
			t.Fatalf("entry %d created %d store objects, want %d", i+1, len(created), want)
		}
	}
	fresh := c.newEnclave(t, c.raw)
	if err := c.mount(fresh); err != nil {
		t.Fatal(err)
	}
	if entries, err := fresh.Filldir("/flat"); err != nil || len(entries) != metadata.DefaultBucketSize+1 {
		t.Fatalf("fresh mount lists %d entries, %v", len(entries), err)
	}
}
