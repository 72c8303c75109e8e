// Package parallel provides the bounded fan-out primitive behind the
// chunk-crypto pipeline (DESIGN.md §10). It is deliberately tiny: a
// worker-count resolver and a contiguous-range splitter, so hot paths
// can scale across cores without each call site reinventing error
// collection.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count knob into an effective fan-out width:
// zero (the default wherever a knob is threaded through a config) means
// GOMAXPROCS, anything below one clamps to serial. The result never
// exceeds GOMAXPROCS: the knob is a width *request*, and running more
// CPU-bound workers than schedulable Ps only adds scheduler churn — the
// committed 1-cpu baseline showed w=8 costing ~30% over w=1 from
// exactly that oversubscription. Tests that need true fan-out on a
// small machine raise runtime.GOMAXPROCS first.
func Workers(knob int) int {
	p := runtime.GOMAXPROCS(0)
	if knob == 0 {
		return p
	}
	if knob < 1 {
		return 1
	}
	if knob > p {
		return p
	}
	return knob
}

// rangeRun is the shared state of one Ranges call. It exists so the
// whole fan-out costs two heap objects (this struct and the caller's
// span closure) regardless of width: workers are started with a method
// call on the pointer, and spans are claimed through one atomic rather
// than per-goroutine closures.
type rangeRun struct {
	n, w, per, rem int
	next           atomic.Int64
	wg             sync.WaitGroup
	mu             sync.Mutex
	err            error
	span           func(lo, hi int) error
}

// work claims span indices until none remain. Spans stay contiguous —
// index k maps to the same [lo, hi) split as ever — but claiming them
// through the atomic lets a worker that finishes early pick up a span a
// slower sibling has not started, which matters once Workers clamps the
// width below the requested knob.
func (r *rangeRun) work() {
	defer r.wg.Done()
	for {
		k := int(r.next.Add(1)) - 1
		if k >= r.w {
			return
		}
		lo := k*r.per + min(k, r.rem)
		hi := lo + r.per
		if k < r.rem {
			hi++
		}
		if err := r.span(lo, hi); err != nil {
			r.mu.Lock()
			if r.err == nil {
				r.err = err
			}
			r.mu.Unlock()
		}
	}
}

// Ranges splits the index space [0, n) into at most workers contiguous
// spans of near-equal size and runs span on each concurrently. With
// workers <= 1 (or n == 1) the single span runs inline on the calling
// goroutine, so serial callers pay nothing. Ranges always waits for
// every span to finish and returns one of the errors encountered (which
// one is unspecified when several spans fail).
//
// Contiguous spans — rather than a shared work queue — keep each worker
// on an adjacent slice of the caller's buffers (cache-friendly, no
// per-item channel traffic) and give it a natural place to hold
// per-worker scratch across its whole span. The calling goroutine
// participates as one of the workers, so only w-1 goroutines are
// spawned and the steady-state cost is two allocations per call.
func Ranges(n, workers int, span func(lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		return span(0, n)
	}

	r := &rangeRun{n: n, w: w, per: n / w, rem: n % w, span: span}
	r.wg.Add(w)
	// One shared zero-argument closure for every spawn: `go r.work()`
	// would heap-allocate a wrapper per goroutine to carry the receiver
	// (register-ABI `go` statements with arguments always do), which at
	// w=8 is most of the fan-out's allocation budget.
	body := func() { r.work() }
	for k := 1; k < w; k++ {
		go body()
	}
	r.work()
	r.wg.Wait()
	return r.err
}

// SpanBounds returns the [lo, hi) split Ranges uses for span k of n
// items across w workers. Exported so pipelined consumers (the
// seal-stream in internal/metadata) can translate per-span progress
// into a contiguous completed prefix without duplicating the split.
func SpanBounds(n, w, k int) (lo, hi int) {
	per, rem := n/w, n%w
	lo = k*per + min(k, rem)
	hi = lo + per
	if k < rem {
		hi++
	}
	return lo, hi
}
