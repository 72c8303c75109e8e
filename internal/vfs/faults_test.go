package vfs

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"sync"
	"testing"

	"nexus/internal/backend"
	"nexus/internal/enclave"
	"nexus/internal/metadata"
	"nexus/internal/sgx"
)

// flakyStore wraps a backend.Store and fails operations with a scripted
// storage-substrate error while armed, modelling the typed failures the
// AFS client surfaces when its server is unreachable.
type flakyStore struct {
	backend.Store

	mu     sync.Mutex
	getErr error // returned by Get while set; guarded by mu
	putErr error // returned by Put while set; guarded by mu
}

func (s *flakyStore) fail(getErr, putErr error) {
	s.mu.Lock()
	s.getErr, s.putErr = getErr, putErr
	s.mu.Unlock()
}

func (s *flakyStore) Get(name string) ([]byte, error) {
	s.mu.Lock()
	err := s.getErr
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return s.Store.Get(name)
}

func (s *flakyStore) Put(name string, data []byte) error {
	s.mu.Lock()
	err := s.putErr
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return s.Store.Put(name, data)
}

// newFlakyFS builds a mounted FS whose backing store can be made to fail
// on demand.
func newFlakyFS(t *testing.T) (*FS, *flakyStore) {
	t.Helper()
	platform, err := sgx.NewPlatform(sgx.PlatformConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	container, err := platform.CreateEnclave(sgx.Image{Name: "nexus-enclave", Version: 1, Code: []byte("test")})
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakyStore{Store: backend.NewMemStore()}
	encl, err := enclave.New(enclave.Config{SGX: container, Store: NewVersionedStore(flaky)})
	if err != nil {
		t.Fatal(err)
	}
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := encl.CreateVolume("owner", pub)
	if err != nil {
		t.Fatal(err)
	}
	volID, err := encl.VolumeUUID()
	if err != nil {
		t.Fatal(err)
	}
	nonce, blob, err := encl.BeginAuth(pub, sealed, volID)
	if err != nil {
		t.Fatal(err)
	}
	msg := append(append([]byte(nil), nonce...), blob...)
	if err := encl.CompleteAuth(ed25519.Sign(priv, msg)); err != nil {
		t.Fatal(err)
	}
	return New(encl), flaky
}

// Storage faults must reach applications as typed, matchable errors:
// the enclave sentinel on top, the backend sentinel underneath. /pre is
// above the inline cap, so its read fetches its data object, which the
// adapter never keeps: the read needs the dead store.
func TestStoreFaultsSurfaceTyped(t *testing.T) {
	fs, flaky := newFlakyFS(t)
	pre := bytes.Repeat([]byte("before the outage "), metadata.MaxInlineSize/16)
	if err := fs.WriteFile("/pre", pre); err != nil {
		t.Fatal(err)
	}

	flaky.fail(backend.ErrTimeout, backend.ErrUnavailable)
	_, err := fs.ReadFile("/pre")
	if err == nil {
		t.Fatal("read through a dead store succeeded")
	}
	if !errors.Is(err, enclave.ErrStoreUnavailable) {
		t.Errorf("read error lacks enclave.ErrStoreUnavailable: %v", err)
	}
	if !errors.Is(err, backend.ErrTimeout) {
		t.Errorf("read error lost the backend sentinel: %v", err)
	}
	if !IsUnavailable(err) {
		t.Errorf("vfs.IsUnavailable = false for %v", err)
	}
	if err := fs.WriteFile("/during", []byte("x")); err == nil {
		t.Fatal("write through a dead store succeeded")
	} else if !IsUnavailable(err) {
		t.Errorf("write error not classified unavailable: %v", err)
	}

	// Non-fault errors must not be classified as substrate failures.
	flaky.fail(nil, nil)
	if _, err := fs.ReadFile("/never-created"); err == nil || IsUnavailable(err) {
		t.Errorf("plain not-found classified unavailable: %v", err)
	}
}
