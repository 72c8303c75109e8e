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
	cfg.WritebackMaxOps = 1
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
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
// every worker width below to have several chunks in flight.
const streamChunkSize = 64 << 10

// patterned returns n deterministic, non-repeating-per-chunk bytes.
func patterned(n int, seed byte) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*37+i>>12) + seed
	}
	return data
}

// TestStreamingWriteFileRoundTrip drives WriteFile through the
// encrypt-while-upload path (a payload of exactly streamPutCutoff bytes,
// the smallest that streams) at several worker widths: the store must
// receive the full sealed object through the stream surface, round trips
// stay byte-identical, and tampering with the streamed object still
// trips chunk authentication.
func TestStreamingWriteFileRoundTrip(t *testing.T) {
	data := patterned(streamPutCutoff, 5)
	for _, workers := range []int{1, 2, 8} {
		store := newStreamMemStore()
		e := newAuthedEnclave(t, Config{Store: store, ChunkSize: streamChunkSize, CryptoWorkers: workers})

		if err := e.Touch("/blob"); err != nil {
			t.Fatal(err)
		}
		if err := e.WriteFile("/blob", data); err != nil {
			t.Fatalf("workers %d: WriteFile: %v", workers, err)
		}
		if store.streamPutCount() == 0 {
			t.Fatalf("workers %d: WriteFile did not use the streaming put", workers)
		}
		got, err := e.ReadFile("/blob")
		if err != nil {
			t.Fatalf("workers %d: ReadFile: %v", workers, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("workers %d: streamed round trip mismatch", workers)
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
			t.Fatalf("workers %d: streamed data object not found on store", workers)
		}
		if _, err := e.ReadFile("/blob"); !errors.Is(err, metadata.ErrTampered) {
			t.Fatalf("workers %d: tampered read = %v, want ErrTampered", workers, err)
		}
	}
}

// TestStreamingPutFailureKeepsOldContent checks the failure contract of
// the streamed path: a mid-stream error surfaces from WriteFile, the
// store keeps the previous object version (streamed puts are atomic),
// and a subsequent read — after the enclave drops its cached filenode
// with the never-persisted rotated keys — returns the old contents.
func TestStreamingPutFailureKeepsOldContent(t *testing.T) {
	store := newStreamMemStore()
	e := newAuthedEnclave(t, Config{Store: store, ChunkSize: streamChunkSize, CryptoWorkers: 2})

	v1 := patterned(streamPutCutoff, 1)
	if err := e.Touch("/f"); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteFile("/f", v1); err != nil {
		t.Fatal(err)
	}

	store.setFailAfter(1024)
	v2 := patterned(streamPutCutoff+3*streamChunkSize, 2)
	if err := e.WriteFile("/f", v2); err == nil {
		t.Fatal("WriteFile with mid-stream store failure succeeded")
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
	if err := e.WriteFile("/small", below); err != nil {
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
	if err := e2.WriteFile("/big", big); err != nil {
		t.Fatalf("cutoff-sized write on a store without a streaming put: %v", err)
	}
	if got, err := e2.ReadFile("/big"); err != nil || !bytes.Equal(got, big) {
		t.Fatalf("assembled round trip at the cutoff: mismatch or error %v", err)
	}
}

// TestWriteFilePoolMetrics checks that repeated same-sized writes hit
// the enclave's chunk-buffer arena and that the hit/miss counters show
// up in Stats. The first write leases a fresh class (a miss); later
// writes of the same size reuse it (hits).
func TestWriteFilePoolMetrics(t *testing.T) {
	e := newAuthedEnclave(t, Config{Store: newMemObjectStore(), ChunkSize: 4096})
	if err := e.Touch("/f"); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 32<<10)
	if err := e.WriteFile("/f", data); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.ChunkPoolMisses == 0 {
		t.Fatalf("first write: ChunkPoolMisses = 0, want >0 (stats: %+v)", s)
	}
	if s.ChunkPoolHits != 0 {
		t.Fatalf("first write: ChunkPoolHits = %d, want 0", s.ChunkPoolHits)
	}
	for i := 0; i < 3; i++ {
		if err := e.WriteFile("/f", data); err != nil {
			t.Fatal(err)
		}
	}
	s = e.Stats()
	// One lease per write; whether a released span comes back is up to
	// sync.Pool, which promises it only without the race detector.
	if s.ChunkPoolHits+s.ChunkPoolMisses != 4 {
		t.Fatalf("4 writes: hits %d + misses %d, want 4 leases", s.ChunkPoolHits, s.ChunkPoolMisses)
	}
	if !raceEnabled && s.ChunkPoolHits < 3 {
		t.Fatalf("repeat writes: ChunkPoolHits = %d, want >= 3", s.ChunkPoolHits)
	}
	e.ResetStats()
	s = e.Stats()
	if s.ChunkPoolHits != 0 || s.ChunkPoolMisses != 0 {
		t.Fatalf("ResetStats left pool counters at hits=%d misses=%d", s.ChunkPoolHits, s.ChunkPoolMisses)
	}
}
