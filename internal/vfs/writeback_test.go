package vfs

import (
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"testing"

	"nexus/internal/backend"
	"nexus/internal/enclave"
	"nexus/internal/sgx"
)

// newWritebackPair builds two enclaves on one platform over a shared
// store: the writer's FS and a reader enclave — the other-machine view
// that only sees what the store holds.
func newWritebackPair(t *testing.T) (*FS, *enclave.Enclave) {
	t.Helper()
	platform, err := sgx.NewPlatform(sgx.PlatformConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	image := sgx.Image{Name: "nexus-enclave", Version: 1, Code: []byte("test")}
	store := NewVersionedStore(backend.NewMemStore())
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}

	writerBox, err := platform.CreateEnclave(image)
	if err != nil {
		t.Fatal(err)
	}
	writer, err := enclave.New(enclave.Config{SGX: writerBox, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := writer.CreateVolume("owner", pub)
	if err != nil {
		t.Fatal(err)
	}
	volID, err := writer.VolumeUUID()
	if err != nil {
		t.Fatal(err)
	}
	auth := func(e *enclave.Enclave) {
		nonce, blob, err := e.BeginAuth(pub, sealed, volID)
		if err != nil {
			t.Fatal(err)
		}
		msg := append(append([]byte(nil), nonce...), blob...)
		if err := e.CompleteAuth(ed25519.Sign(priv, msg)); err != nil {
			t.Fatal(err)
		}
	}
	auth(writer)

	readerBox, err := platform.CreateEnclave(image)
	if err != nil {
		t.Fatal(err)
	}
	reader, err := enclave.New(enclave.Config{SGX: readerBox, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	auth(reader)
	return New(writer), reader
}

// TestWritebackCloseIsBarrier: a file created via an open handle is
// invisible to another enclave until the handle closes; Close drains
// the dirty set and publishes it.
func TestWritebackCloseIsBarrier(t *testing.T) {
	fs, reader := newWritebackPair(t)

	f, err := fs.Open("/doc", O_RDWR|O_CREATE)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("draft")); err != nil {
		t.Fatal(err)
	}
	reader.DropCaches()
	if _, err := reader.ReadFile("/doc"); !errors.Is(err, enclave.ErrNotFound) {
		t.Fatalf("pre-barrier read = %v, want ErrNotFound (metadata leaked before the barrier)", err)
	}

	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	reader.DropCaches()
	got, err := reader.ReadFile("/doc")
	if err != nil {
		t.Fatalf("post-Close read: %v", err)
	}
	if string(got) != "draft" {
		t.Fatalf("post-Close read = %q, want %q", got, "draft")
	}
}

// TestWritebackFSSyncIsBarrier: FS.Sync publishes mutations made through
// path-level ops that batch (Touch via Open is covered above; here a
// directory create).
func TestWritebackFSSyncIsBarrier(t *testing.T) {
	fs, reader := newWritebackPair(t)

	// Mkdir batches in write-back mode; the reader must not see it yet.
	if err := fs.Mkdir("/inbox"); err != nil {
		t.Fatal(err)
	}
	reader.DropCaches()
	if _, err := reader.Filldir("/inbox"); !errors.Is(err, enclave.ErrNotFound) {
		t.Fatalf("pre-Sync Filldir = %v, want ErrNotFound", err)
	}

	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	reader.DropCaches()
	if _, err := reader.Filldir("/inbox"); err != nil {
		t.Fatalf("post-Sync Filldir: %v", err)
	}
}
