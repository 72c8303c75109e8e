package enclave

import (
	"testing"
	"time"
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
