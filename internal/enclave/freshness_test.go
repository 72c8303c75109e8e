package enclave

import "testing"

// TestPerObjectCountersMissSnapshotRollback documents why the Merkle
// root matters (its counterpart is TestRollbackWholeVolumeFreshClient):
// over a plain store a fresh enclave accepts the stale snapshot.
func TestPerObjectCountersMissSnapshotRollback(t *testing.T) {
	owner := newIdentity(t, "owen")
	env, _, _ := newMountedVolume(t, owner)
	e := env.enclave

	if err := e.Mkdir("/docs"); err != nil {
		t.Fatal(err)
	}
	snapshot := make(map[string][]byte)
	names, err := env.store.mem.List("")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		b, _, err := env.store.GetVersioned(n)
		if err != nil {
			t.Fatal(err)
		}
		snapshot[n] = b
	}
	if err := e.Touch("/docs/new"); err != nil {
		t.Fatal(err)
	}
	for n, b := range snapshot {
		if _, err := env.store.PutVersioned(n, b); err != nil {
			t.Fatal(err)
		}
	}

	// Fresh enclave over a proof-less store: the stale state verifies.
	encl2, err := New(Config{SGX: e.sgx, Store: env.store, IAS: env.ias})
	if err != nil {
		t.Fatal(err)
	}
	sealed2, err := e.sgx.Seal(e.rootKey, e.super.VolumeUUID[:])
	if err != nil {
		t.Fatal(err)
	}
	if err := authenticate(t, encl2, owner, sealed2, e.super.VolumeUUID); err != nil {
		t.Fatal(err)
	}
	entries, err := encl2.Filldir("/docs")
	if err != nil {
		t.Fatalf("per-object mode rejected consistent snapshot: %v", err)
	}
	if len(entries) != 0 {
		t.Fatalf("stale snapshot shows %d entries (expected the old empty dir)", len(entries))
	}
}
