//go:build !race

package metadata

import (
	"runtime"
	"testing"

	"nexus/internal/uuid"
)

// allocBudget is the steady-state heap-allocation ceiling per
// encrypt/decrypt call at every worker width (ISSUE 8 acceptance
// criterion: ≤8). The real count is ~5: the output buffer, the AES
// block + GCM wrapper for the per-update content key, and the two
// fan-out objects (rangeRun + span closure); the key and IVs are drawn
// straight into the filenode and the AAD table is filenode-cached.
const allocBudget = 8

// TestChunkCryptoAllocBudget pins allocs/op for the batch APIs.
// AllocsPerRun forces GOMAXPROCS to 1 for the measurement, so it can
// only exercise the serial path; the parallel widths go through
// testing.Benchmark, whose AllocsPerOp averages over enough iterations
// to amortize pool warm-up and goroutine stack growth.
func TestChunkCryptoAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed; skipped in -short")
	}
	const size = 256 << 10 // 16 chunks of 16 KiB, above the serial cutoff
	f := NewFilenode(uuid.New(), uuid.Nil, 16<<10)
	pt := make([]byte, size)

	// Serial path via AllocsPerRun (warm the pools first).
	if _, err := sealContent(f, pt, 1); err != nil {
		t.Fatal(err)
	}
	encAllocs := testing.AllocsPerRun(20, func() {
		if _, err := sealContent(f, pt, 1); err != nil {
			t.Fatal(err)
		}
	})
	if encAllocs > allocBudget {
		t.Errorf("encrypt w=1: %.1f allocs/op, budget %d", encAllocs, allocBudget)
	}
	blob, err := sealContent(f, pt, 1)
	if err != nil {
		t.Fatal(err)
	}
	decAllocs := testing.AllocsPerRun(20, func() {
		if _, err := openContent(f, blob, 1); err != nil {
			t.Fatal(err)
		}
	})
	if decAllocs > allocBudget {
		t.Errorf("decrypt w=1: %.1f allocs/op, budget %d", decAllocs, allocBudget)
	}

	// Parallel widths via testing.Benchmark.
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	for _, w := range []int{2, 4, 8} {
		w := w
		enc := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sealContent(f, pt, w); err != nil {
					b.Fatal(err)
				}
			}
		})
		if got := enc.AllocsPerOp(); got > allocBudget {
			t.Errorf("encrypt w=%d: %d allocs/op, budget %d", w, got, allocBudget)
		}
		blob, err := sealContent(f, pt, w)
		if err != nil {
			t.Fatal(err)
		}
		dec := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := openContent(f, blob, w); err != nil {
					b.Fatal(err)
				}
			}
		})
		if got := dec.AllocsPerOp(); got > allocBudget {
			t.Errorf("decrypt w=%d: %d allocs/op, budget %d", w, got, allocBudget)
		}
	}
}

// TestRefreshContextsKeysOnlyInFilenode pins where an update's key
// material goes: the content key and every IV are drawn straight into
// the filenode, so a node whose Chunks already has the capacity draws
// them without a single allocation — no scratch buffer ever holds a
// key, so none needs zeroing. Two updates must draw a distinct key and
// distinct IVs.
func TestRefreshContextsKeysOnlyInFilenode(t *testing.T) {
	const n = 8
	f := NewFilenode(uuid.New(), uuid.Nil, 1024)
	if err := f.refreshContexts(n); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := f.refreshContexts(n); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("refreshContexts: %.1f allocs/op, want 0", allocs)
	}

	firstKey := f.ContentKey
	first := append([]ChunkContext(nil), f.Chunks...)
	if err := f.refreshContexts(n); err != nil {
		t.Fatal(err)
	}
	if f.ContentKey == firstKey || f.ContentKey == ([BodyKeySize]byte{}) {
		t.Fatal("update did not draw a fresh content key")
	}
	seen := make(map[[ivSize]byte]bool)
	for i := range f.Chunks {
		iv := f.Chunks[i].IV
		if iv == first[i].IV || seen[iv] {
			t.Fatalf("chunk %d IV repeats across or within updates", i)
		}
		seen[iv] = true
	}
}

// TestChunkCryptoIntoAllocFree pins the caller-owned-buffer variants at
// (near) zero steady-state allocations on the serial path: with dst
// supplied, the only per-op heap objects are the AEAD construction.
func TestChunkCryptoIntoAllocFree(t *testing.T) {
	const size = 64 << 10
	f := NewFilenode(uuid.New(), uuid.Nil, 16<<10)
	pt := make([]byte, size)
	dst := make([]byte, 0, f.SealedSize(size))
	out := make([]byte, 0, size)
	sealed, err := f.EncryptContentInto(dst, pt, 1)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		var err error
		sealed, err = f.EncryptContentInto(dst, pt, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.DecryptContentInto(out, sealed, 1); err != nil {
			t.Fatal(err)
		}
	})
	// One encrypt + one decrypt: two AEAD constructions. Give the
	// toolchain headroom but stay far under one alloc per chunk.
	if allocs > 6 {
		t.Errorf("Into round trip: %.1f allocs/op, want <= 6", allocs)
	}
}
