package enclave

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"nexus/internal/metadata"
	"nexus/internal/sgx"
)

// streamMemStore extends the in-memory object store with the optional
// streaming put surface. It copies every segment (per the ObjectStore
// ownership rules — the enclave reuses the backing buffer) and applies
// the object atomically: a mid-stream failure leaves the prior version
// untouched.
type streamMemStore struct {
	*memObjectStore

	mu         sync.Mutex
	streamPuts int
	failAfter  int // inject an error once this many bytes arrive (0 = never)
}

func newStreamMemStore() *streamMemStore {
	return &streamMemStore{memObjectStore: newMemObjectStore()}
}

func (s *streamMemStore) PutVersionedStream(name string, total int, next func() ([]byte, error)) (uint64, error) {
	buf := make([]byte, 0, total)
	for {
		seg, err := next()
		if err != nil {
			return 0, err
		}
		if seg == nil {
			break
		}
		buf = append(buf, seg...)
		s.mu.Lock()
		fail := s.failAfter > 0 && len(buf) >= s.failAfter
		s.mu.Unlock()
		if fail {
			return 0, errors.New("injected mid-stream failure")
		}
	}
	if len(buf) != total {
		return 0, fmt.Errorf("stream put %s: got %d bytes, announced %d", name, len(buf), total)
	}
	s.mu.Lock()
	s.streamPuts++
	s.mu.Unlock()
	return s.PutVersioned(name, buf)
}

func (s *streamMemStore) streamPutCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.streamPuts
}

func (s *streamMemStore) setFailAfter(n int) {
	s.mu.Lock()
	s.failAfter = n
	s.mu.Unlock()
}

// newAuthedEnclave builds an enclave over store with the given config
// overrides, creates a volume, and authenticates its owner.
func newAuthedEnclave(t *testing.T, cfg Config) *Enclave {
	t.Helper()
	owner := newIdentity(t, "owen")
	platform, err := sgx.NewPlatform(sgx.PlatformConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	container, err := platform.CreateEnclave(nexusImage)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SGX = container
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.SetWritebackMaxOps(1)
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
	return e
}

// streamChunkSize keeps a cutoff-sized payload at 64 chunks, enough for
// every worker to have several chunks in flight.
const streamChunkSize = 64 << 10

// patterned returns n deterministic, non-repeating-per-chunk bytes.
func patterned(n int, seed byte) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*37+i>>12) + seed
	}
	return data
}

// TestStreamingWriteFileRoundTrip drives SaveFile through the
// encrypt-while-upload path (a payload of exactly streamPutCutoff bytes,
// the smallest that streams): the store must receive the full sealed
// object through the stream surface, round trips stay byte-identical,
// and tampering with the streamed object still trips chunk
// authentication.
func TestStreamingWriteFileRoundTrip(t *testing.T) {
	data := patterned(streamPutCutoff, 5)
	store := newStreamMemStore()
	e := newAuthedEnclave(t, Config{Store: store, ChunkSize: streamChunkSize})

	if err := e.Touch("/blob"); err != nil {
		t.Fatal(err)
	}
	if err := e.SaveFile("/blob", data, false); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	if store.streamPutCount() == 0 {
		t.Fatal("SaveFile did not use the streaming put")
	}
	got, err := e.ReadFile("/blob")
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("streamed round trip mismatch")
	}

	// Corrupt the streamed data object (the only object whose length
	// is the sealed size) and expect authentication to fail.
	sealedLen := len(data) + (len(data)/streamChunkSize)*16
	names, err := store.mem.List("")
	if err != nil {
		t.Fatal(err)
	}
	corrupted := false
	for _, n := range names {
		blob, err := store.mem.Get(n)
		if err != nil {
			t.Fatal(err)
		}
		if len(blob) == sealedLen {
			mut := bytes.Clone(blob)
			mut[len(mut)/3] ^= 1
			if err := store.mem.Put(n, mut); err != nil {
				t.Fatal(err)
			}
			corrupted = true
		}
	}
	if !corrupted {
		t.Fatal("streamed data object not found on store")
	}
	if _, err := e.ReadFile("/blob"); !errors.Is(err, metadata.ErrTampered) {
		t.Fatalf("tampered read = %v, want ErrTampered", err)
	}
}

// TestStreamingPutFailureKeepsOldContent checks the failure contract of
// the streamed path: a mid-stream error surfaces from SaveFile, the
// store keeps the previous object version (streamed puts are atomic),
// and a subsequent read — after the enclave drops its cached filenode
// with the never-persisted rotated keys — returns the old contents.
func TestStreamingPutFailureKeepsOldContent(t *testing.T) {
	store := newStreamMemStore()
	e := newAuthedEnclave(t, Config{Store: store, ChunkSize: streamChunkSize})

	v1 := patterned(streamPutCutoff, 1)
	if err := e.Touch("/f"); err != nil {
		t.Fatal(err)
	}
	if err := e.SaveFile("/f", v1, false); err != nil {
		t.Fatal(err)
	}

	store.setFailAfter(1024)
	v2 := patterned(streamPutCutoff+3*streamChunkSize, 2)
	if err := e.SaveFile("/f", v2, false); err == nil {
		t.Fatal("SaveFile with mid-stream store failure succeeded")
	}
	store.setFailAfter(0)
	if n := store.streamPutCount(); n != 1 {
		t.Fatalf("completed streamed puts = %d, want 1 (v1 only)", n)
	}

	got, err := e.ReadFile("/f")
	if err != nil {
		t.Fatalf("ReadFile after failed streamed write: %v", err)
	}
	if !bytes.Equal(got, v1) {
		t.Fatal("failed streamed write corrupted the stored contents")
	}
}

// TestSmallWritesSkipStreaming pins what selects the assembled put: a
// write one byte below streamPutCutoff takes it even on a
// stream-capable store, and a store without PutVersionedStream takes it
// at any size.
func TestSmallWritesSkipStreaming(t *testing.T) {
	store := newStreamMemStore()
	e := newAuthedEnclave(t, Config{Store: store, ChunkSize: streamChunkSize})
	if err := e.Touch("/small"); err != nil {
		t.Fatal(err)
	}
	below := patterned(streamPutCutoff-1, 3)
	if err := e.SaveFile("/small", below, false); err != nil {
		t.Fatal(err)
	}
	if n := store.streamPutCount(); n != 0 {
		t.Fatalf("below-cutoff write used streaming put %d times", n)
	}
	if got, err := e.ReadFile("/small"); err != nil || !bytes.Equal(got, below) {
		t.Fatalf("below-cutoff round trip: mismatch or error %v", err)
	}

	plain := newMemObjectStore()
	if _, ok := ObjectStore(plain).(StreamObjectStore); ok {
		t.Fatal("memObjectStore grew a streaming put; this case needs a store without one")
	}
	e2 := newAuthedEnclave(t, Config{Store: plain, ChunkSize: streamChunkSize})
	if err := e2.Touch("/big"); err != nil {
		t.Fatal(err)
	}
	big := patterned(streamPutCutoff, 4)
	if err := e2.SaveFile("/big", big, false); err != nil {
		t.Fatalf("cutoff-sized write on a store without a streaming put: %v", err)
	}
	if got, err := e2.ReadFile("/big"); err != nil || !bytes.Equal(got, big) {
		t.Fatalf("assembled round trip at the cutoff: mismatch or error %v", err)
	}
}
