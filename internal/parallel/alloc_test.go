//go:build !race

package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestRangesAllocBudget pins the fan-out's fixed cost: two heap objects
// per call (the rangeRun and the shared spawn closure) at every width,
// and zero on the inline serial path. A regression here multiplies
// straight into the chunk-crypto allocs/op gate.
func TestRangesAllocBudget(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	span := func(lo, hi int) error { return nil }
	for _, w := range []int{1, 2, 4, 8} {
		w := w
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := Ranges(16, w, span); err != nil {
					b.Fatal(err)
				}
			}
		})
		budget := int64(2)
		if w == 1 {
			budget = 0
		}
		if got := res.AllocsPerOp(); got > budget {
			t.Errorf("Ranges w=%d: %d allocs/op, budget %d", w, got, budget)
		}
	}
}

// TestArenaGetReleaseAllocFree pins the pool hot path at zero
// steady-state allocations.
func TestArenaGetReleaseAllocFree(t *testing.T) {
	a := NewArena()
	a.Get(1 << 16).Release() // warm the class
	allocs := testing.AllocsPerRun(100, func() {
		b := a.Get(1 << 16)
		b.Release()
	})
	if allocs > 0 {
		t.Errorf("arena get/release: %.1f allocs/op, want 0", allocs)
	}
}

// TestArenaReuseAndCounters pins exact reuse, which only holds without
// the race detector: under it sync.Pool drops a share of what is put back.
func TestArenaReuseAndCounters(t *testing.T) {
	a := NewArena()
	var hooked atomic.Int64
	a.SetCounters(func() { hooked.Add(1) }, func() { hooked.Add(100) })

	b1 := a.Get(1000)
	if len(b1.B) != 1000 || cap(b1.B) != 4096 {
		t.Fatalf("lease: len=%d cap=%d, want 1000/4096", len(b1.B), cap(b1.B))
	}
	p1 := &b1.B[0]
	b1.Release()

	b2 := a.Get(2000)
	if len(b2.B) != 2000 {
		t.Fatalf("second lease len = %d", len(b2.B))
	}
	if &b2.B[0] != p1 {
		t.Fatal("same-class lease did not reuse the released buffer")
	}
	hits, misses := a.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 1/1", hits, misses)
	}
	if hooked.Load() != 101 {
		t.Fatalf("counter hooks saw %d, want 101 (1 hit + 1 miss)", hooked.Load())
	}
	b2.Release()
}
