//go:build !race

package parallel

import (
	"runtime"
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
