package enclave

import (
	"bytes"
	"errors"
	"os"
	"testing"

	"nexus/internal/metadata"
	"nexus/internal/serial"
)

// decodeFormat1Root is decodeMerkleRoot as enclaves that lock each
// directory before a commit have it: format 1 or nothing.
func decodeFormat1Root(body []byte) error {
	r := serial.NewReader(body)
	if f := r.ReadUint8("merkle root format"); r.Err() == nil && f != 1 {
		return metadata.ErrMalformed
	}
	r.ReadRaw(32, "merkle root hash")
	r.ReadUint64("merkle root epoch")
	return r.Finish()
}

// TestMerkleRootFormat2Golden pins the sealed root body the commit
// protocol writes (testdata/merkle-root-format2.body: format 2, hash
// 0x20..0x3f, epoch 0x0102030405060708). An enclave that still takes
// directory locks rejects it, so it fails closed instead of committing
// beside clients that take none; format 1 bodies still decode.
func TestMerkleRootFormat2Golden(t *testing.T) {
	golden, err := os.ReadFile("testdata/merkle-root-format2.body")
	if err != nil {
		t.Fatal(err)
	}
	var root [32]byte
	for i := range root {
		root[i] = byte(0x20 + i)
	}
	const epoch = 0x0102030405060708
	if got := encodeMerkleRoot(root, epoch); !bytes.Equal(got, golden) {
		t.Fatalf("encodeMerkleRoot = %x, golden %x", got, golden)
	}
	if err := decodeFormat1Root(golden); !errors.Is(err, metadata.ErrMalformed) {
		t.Fatalf("a format-1 decoder accepted the format-2 root: %v", err)
	}
	format1 := append([]byte{1}, golden[1:]...)
	if err := decodeFormat1Root(format1); err != nil {
		t.Fatalf("format-1 decoder on a format-1 body: %v", err)
	}
	for _, body := range [][]byte{golden, format1} {
		gotRoot, gotEpoch, err := decodeMerkleRoot(body)
		if err != nil || gotRoot != root || gotEpoch != epoch {
			t.Fatalf("decodeMerkleRoot(format %d) = %x, %#x, %v", body[0], gotRoot, gotEpoch, err)
		}
	}
	if _, _, err := decodeMerkleRoot(append([]byte{3}, golden[1:]...)); !errors.Is(err, metadata.ErrMalformed) {
		t.Fatalf("format 3 decoded: %v", err)
	}
}

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
