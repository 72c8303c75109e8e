package enclave

import (
	"testing"
	"time"

	"nexus/internal/metadata"
)

// slowUnlockStore is a store whose lock releases take a while, as a
// release over the network does.
type slowUnlockStore struct {
	*memObjectStore
	delay time.Duration
}

func (s *slowUnlockStore) Lock(name string) (func(), error) {
	release, err := s.memObjectStore.Lock(name)
	if err != nil {
		return nil, err
	}
	return func() {
		time.Sleep(s.delay)
		release()
	}, nil
}

// TestUnlockIsAnOcall: releasing a store lock is a store call like any
// other, made outside the enclave. A warm Remove of a file is three
// ocalls — the walk, the filenode's lock with its read, and the unlock —
// and the unlock's time is not enclave time.
func TestUnlockIsAnOcall(t *testing.T) {
	const delay = 20 * time.Millisecond
	store := &slowUnlockStore{memObjectStore: newMemObjectStore()}
	env := newTestEnvCfg(t, store.memObjectStore, func(c *Config) { c.Store = store })
	owner := newIdentity(t, "owen")
	e := env.enclave
	e.SetWritebackMaxOps(defaultWritebackMaxOps) // no drain inside the Remove
	sealed, err := e.CreateVolume(owner.name, owner.pub)
	if err != nil {
		t.Fatal(err)
	}
	volID, err := e.VolumeUUID()
	if err != nil {
		t.Fatal(err)
	}
	if err := authenticate(t, e, owner, sealed, volID); err != nil {
		t.Fatal(err)
	}
	if err := e.SaveFile("/d/f", []byte("x"), true); err == nil {
		t.Fatal("SaveFile created a file in a missing directory")
	}
	if err := e.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := e.SaveFile("/d/f", []byte("x"), true); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Lookup("/d/f"); err != nil { // warms the filenode
		t.Fatal(err)
	}

	store.delay = delay
	ec, oc, inside := e.sgx.EcallCount(), e.sgx.OcallCount(), e.sgx.TimeInEnclave()
	start := time.Now()
	if err := e.Remove("/d/f"); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < delay {
		t.Fatalf("Remove took %v, less than the unlock's %v: the unlock did not run", elapsed, delay)
	}
	if ecalls, ocalls := e.sgx.EcallCount()-ec, e.sgx.OcallCount()-oc; ecalls != 1 || ocalls != 3 {
		t.Errorf("Remove: (ecalls, ocalls) = (%d, %d), want (1, 3)", ecalls, ocalls)
	}
	if in := e.sgx.TimeInEnclave() - inside; in >= delay {
		t.Errorf("Remove spent %v in the enclave, which counts the unlock's %v", in, delay)
	}
}

// slowBigPutStore is a store whose puts of at least min bytes take delay
// longer: in TestIOMeterPerStoreCall, the one data object's put.
type slowBigPutStore struct {
	*memObjectStore
	min    int
	delay  time.Duration
	slowed int
}

func (s *slowBigPutStore) PutVersioned(name string, data []byte) (uint64, error) {
	if len(data) >= s.min {
		s.slowed++
		time.Sleep(s.delay)
	}
	return s.memObjectStore.PutVersioned(name, data)
}

// TestIOMeterPerStoreCall: each store call's time goes to the I/O meter of
// what the call moves, not to one meter per exit. A new file too large to
// be inline and too small to stream is put in the first exit of the
// drain's commit, beside metadata calls; a delay on that data put alone
// moves the data-I/O meter by at least the delay and the metadata-I/O
// meter by less.
func TestIOMeterPerStoreCall(t *testing.T) {
	const delay = 20 * time.Millisecond
	size := 4 * metadata.MaxInlineSize // < streamPutCutoff
	store := &slowBigPutStore{memObjectStore: newMemObjectStore(), min: size, delay: delay}
	env := newTestEnvCfg(t, store.memObjectStore, func(c *Config) { c.Store = store })
	owner := newIdentity(t, "owen")
	e := env.enclave
	e.SetWritebackMaxOps(defaultWritebackMaxOps) // the create waits for the drain
	sealed, err := e.CreateVolume(owner.name, owner.pub)
	if err != nil {
		t.Fatal(err)
	}
	volID, err := e.VolumeUUID()
	if err != nil {
		t.Fatal(err)
	}
	if err := authenticate(t, e, owner, sealed, volID); err != nil {
		t.Fatal(err)
	}
	if err := e.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}

	reg := e.Obs()
	meta, data := reg.CounterValue("enclave_metadata_io_ns_total"), reg.CounterValue("enclave_data_io_ns_total")
	if err := e.SaveFile("/d/f", make([]byte, size), true); err != nil {
		t.Fatal(err)
	}
	if err := e.SyncMetadata(); err != nil {
		t.Fatal(err)
	}
	if store.slowed != 1 {
		t.Fatalf("%d puts of at least %d bytes, want the data object's one", store.slowed, size)
	}
	metaIO := time.Duration(reg.CounterValue("enclave_metadata_io_ns_total") - meta)
	dataIO := time.Duration(reg.CounterValue("enclave_data_io_ns_total") - data)
	if metaIO >= delay {
		t.Errorf("metadata I/O moved by %v, which counts the data put's %v", metaIO, delay)
	}
	if dataIO < delay {
		t.Errorf("data I/O moved by %v, less than the data put's %v", dataIO, delay)
	}
}
