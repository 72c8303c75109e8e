package metadata

import (
	"bytes"
	"crypto/rand"
	"errors"
	"runtime"
	"sync"
	"testing"

	"nexus/internal/uuid"
)

// workerCounts are the fan-out widths every parallel-path test sweeps;
// the satellite spec calls for {1, 2, 8}.
var workerCounts = []int{1, 2, 8}

// withProcs raises GOMAXPROCS for the duration of a test: Workers
// clamps every knob to GOMAXPROCS, so on a single-core CI slice the
// parallel paths would otherwise silently collapse to serial.
func withProcs(t *testing.T, p int) {
	t.Helper()
	old := runtime.GOMAXPROCS(p)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

func TestParallelRoundTripMatchesAcrossWorkerCounts(t *testing.T) {
	withProcs(t, 8)
	for _, size := range []int{0, 1, 1023, 1024, 1025, 64 << 10, 1 << 20} {
		f := NewFilenode(uuid.New(), uuid.New(), 4096)
		pt := make([]byte, size)
		if _, err := rand.Read(pt); err != nil {
			t.Fatal(err)
		}
		for _, w := range workerCounts {
			blob, err := f.EncryptContentWorkers(pt, w)
			if err != nil {
				t.Fatalf("size %d workers %d: encrypt: %v", size, w, err)
			}
			if len(blob) != f.SealedSize(size) {
				t.Fatalf("size %d workers %d: sealed blob %d bytes, want %d", size, w, len(blob), f.SealedSize(size))
			}
			// The same blob must decrypt byte-identically under every
			// fan-out width, not only the one that produced it.
			for _, dw := range workerCounts {
				got, err := f.DecryptContentWorkers(blob, dw)
				if err != nil {
					t.Fatalf("size %d enc-workers %d dec-workers %d: decrypt: %v", size, w, dw, err)
				}
				if !bytes.Equal(got, pt) {
					t.Fatalf("size %d enc-workers %d dec-workers %d: round trip mismatch", size, w, dw)
				}
			}
		}
	}
}

// TestParallelStreamMatchesBatch proves the seal-stream produces the
// same wire bytes the batch API does in one shot: drained segments
// concatenate to exactly the Sealed() blob, the blob decrypts at every
// width, and segments arrive in order without gaps.
func TestParallelStreamMatchesBatch(t *testing.T) {
	withProcs(t, 8)
	for _, size := range []int{0, 1, 4096, 64<<10 + 7, 1 << 20} {
		f := NewFilenode(uuid.New(), uuid.New(), 16<<10)
		pt := make([]byte, size)
		if _, err := rand.Read(pt); err != nil {
			t.Fatal(err)
		}
		for _, w := range workerCounts {
			dst := make([]byte, 0, f.SealedSize(size))
			s, err := f.EncryptContentStream(dst, pt, w)
			if err != nil {
				t.Fatalf("size %d workers %d: stream: %v", size, w, err)
			}
			var drained []byte
			segs := 0
			for {
				seg, err := s.Next()
				if err != nil {
					t.Fatalf("size %d workers %d: Next: %v", size, w, err)
				}
				if seg == nil {
					break
				}
				segs++
				drained = append(drained, seg...)
			}
			if err := s.Wait(); err != nil {
				t.Fatalf("size %d workers %d: Wait: %v", size, w, err)
			}
			if !bytes.Equal(drained, s.Sealed()) {
				t.Fatalf("size %d workers %d: drained %d bytes != sealed %d", size, w, len(drained), len(s.Sealed()))
			}
			if len(drained) != f.SealedSize(size) {
				t.Fatalf("size %d workers %d: sealed %d bytes, want %d", size, w, len(drained), f.SealedSize(size))
			}
			if size > 0 && segs == 0 {
				t.Fatalf("size %d workers %d: no segments emitted", size, w)
			}
			for _, dw := range workerCounts {
				got, err := f.DecryptContentWorkers(drained, dw)
				if err != nil {
					t.Fatalf("size %d stream-workers %d dec-workers %d: decrypt: %v", size, w, dw, err)
				}
				if !bytes.Equal(got, pt) {
					t.Fatalf("size %d stream-workers %d dec-workers %d: round trip mismatch", size, w, dw)
				}
			}
		}
	}
}

func TestParallelTamperReorderTruncateDetected(t *testing.T) {
	withProcs(t, 8)
	const chunk = 1024
	const stride = chunk + 16 // ciphertext + inline tag
	f := NewFilenode(uuid.New(), uuid.Nil, chunk)
	pt := make([]byte, 16*chunk)
	if _, err := rand.Read(pt); err != nil {
		t.Fatal(err)
	}
	blob, err := f.EncryptContentWorkers(pt, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts {
		// Bit flip in a middle chunk.
		mut := bytes.Clone(blob)
		mut[7*stride+13] ^= 1
		if _, err := f.DecryptContentWorkers(mut, w); !errors.Is(err, ErrTampered) {
			t.Fatalf("workers %d: ciphertext flip accepted: %v", w, err)
		}
		// Consistent reorder of two sealed chunks (data swapped with
		// contexts).
		swapped := bytes.Clone(blob)
		copy(swapped[0:stride], blob[stride:2*stride])
		copy(swapped[stride:2*stride], blob[0:stride])
		f.Chunks[0], f.Chunks[1] = f.Chunks[1], f.Chunks[0]
		if _, err := f.DecryptContentWorkers(swapped, w); !errors.Is(err, ErrTampered) {
			t.Fatalf("workers %d: chunk reorder accepted: %v", w, err)
		}
		f.Chunks[0], f.Chunks[1] = f.Chunks[1], f.Chunks[0]
		// Truncation and extension.
		if _, err := f.DecryptContentWorkers(blob[:len(blob)-1], w); !errors.Is(err, ErrTampered) {
			t.Fatalf("workers %d: truncation accepted: %v", w, err)
		}
		if _, err := f.DecryptContentWorkers(append(bytes.Clone(blob), 0), w); !errors.Is(err, ErrTampered) {
			t.Fatalf("workers %d: extension accepted: %v", w, err)
		}
	}
}

// TestParallelFreshKeysPerUpdate asserts that the per-update content
// key preserves the §VI-A fresh-keys-per-update semantics: the key
// never repeats across updates, no chunk reuses an IV across updates,
// and no two chunks of one update share an IV (so no (key, IV) pair
// ever seals two plaintexts).
func TestParallelFreshKeysPerUpdate(t *testing.T) {
	withProcs(t, 8)
	for _, w := range workerCounts {
		f := NewFilenode(uuid.New(), uuid.Nil, 1024)
		pt := bytes.Repeat([]byte{7}, 8*1024)
		if _, err := f.EncryptContentWorkers(pt, w); err != nil {
			t.Fatal(err)
		}
		firstKey := f.ContentKey
		first := make([]ChunkContext, len(f.Chunks))
		copy(first, f.Chunks)
		if _, err := f.EncryptContentWorkers(pt, w); err != nil {
			t.Fatal(err)
		}
		if f.ContentKey == firstKey {
			t.Fatalf("workers %d: content key reused across updates", w)
		}
		for i := range f.Chunks {
			if f.Chunks[i].IV == first[i].IV {
				t.Fatalf("workers %d: chunk %d IV reused across updates", w, i)
			}
		}
		seen := make(map[[ivSize]byte]int)
		for i := range f.Chunks {
			if j, dup := seen[f.Chunks[i].IV]; dup {
				t.Fatalf("workers %d: chunks %d and %d share an IV within one update", w, j, i)
			}
			seen[f.Chunks[i].IV] = i
		}
	}
}

// TestParallelPipelineRaceClean hammers independent filenodes from many
// goroutines while each filenode internally fans out its chunk work;
// meaningful only under -race, where it proves the pipeline shares no
// hidden state across instances or workers.
func TestParallelPipelineRaceClean(t *testing.T) {
	withProcs(t, 8)
	pt := make([]byte, 256<<10)
	if _, err := rand.Read(pt); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(workers int) {
			defer wg.Done()
			f := NewFilenode(uuid.New(), uuid.Nil, 16<<10)
			for iter := 0; iter < 3; iter++ {
				blob, err := f.EncryptContentWorkers(pt, workers)
				if err != nil {
					errs <- err
					return
				}
				got, err := f.DecryptContentWorkers(blob, workers)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, pt) {
					errs <- errors.New("round trip mismatch under concurrency")
					return
				}
			}
		}(1 + g%4)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSerialCutoffPicksSerial pins the auto-mode heuristic: small
// content resolves to one worker, large content to GOMAXPROCS, and an
// explicit knob is honored up to the GOMAXPROCS clamp.
func TestSerialCutoffPicksSerial(t *testing.T) {
	withProcs(t, 8)
	if got := cryptoWorkers(serialCutoffBytes-1, 0); got != 1 {
		t.Fatalf("auto below cutoff: workers = %d, want 1", got)
	}
	if got := cryptoWorkers(serialCutoffBytes-1, 8); got != 8 {
		t.Fatalf("explicit knob below cutoff: workers = %d, want 8", got)
	}
	if got := cryptoWorkers(1<<20, 3); got != 3 {
		t.Fatalf("explicit knob: workers = %d, want 3", got)
	}
	if got := cryptoWorkers(1<<20, 0); got != 8 {
		t.Fatalf("auto above cutoff: workers = %d, want GOMAXPROCS 8", got)
	}
	// The w8-vs-w1 regression fix: a knob above GOMAXPROCS clamps
	// instead of oversubscribing.
	runtime.GOMAXPROCS(2)
	if got := cryptoWorkers(1<<20, 8); got != 2 {
		t.Fatalf("knob above GOMAXPROCS: workers = %d, want clamp to 2", got)
	}
}
