package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// The bucket ladder is fixed at construction: 25 power-of-two bounds
// from 1µs to ~16.8s, plus an overflow bucket. Fixed buckets keep
// Record allocation-free (an index computation and three atomic adds)
// and make two snapshots directly comparable, which the bench report
// diffing relies on. The ladder spans everything the simulated testbed
// produces: sub-µs enclave transitions land in bucket 0, multi-second
// revocation sweeps near the top.
const (
	numBounds  = 25
	numBuckets = numBounds + 1 // +1 overflow
	baseBound  = int64(1000)   // 1µs in ns; bound i = baseBound << i
)

// BucketBound returns the inclusive upper bound, in nanoseconds, of
// bucket i, or math.MaxInt64 for the overflow bucket.
func BucketBound(i int) int64 {
	if i >= numBounds {
		return math.MaxInt64
	}
	return baseBound << uint(i)
}

// NumBuckets is the fixed bucket count, exported for exposition and
// report embedding.
const NumBuckets = numBuckets

// Histogram is a fixed-bucket latency histogram. The zero value is not
// usable; obtain histograms from Registry.Histogram.
type Histogram struct {
	buckets [numBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	min     atomic.Int64 // nanoseconds; MaxInt64 when empty
	max     atomic.Int64 // nanoseconds
}

func newHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	return h
}

// bucketIndex maps a nanosecond duration to its bucket. Bucket i holds
// values in (baseBound<<(i-1), baseBound<<i]; bucket 0 holds (0, 1µs].
func bucketIndex(ns int64) int {
	if ns <= baseBound {
		return 0
	}
	// ceil(log2(ns/baseBound)) via the bit length of (ns-1)/baseBound.
	idx := bits.Len64(uint64((ns - 1) / baseBound))
	if idx >= numBounds {
		return numBounds // overflow bucket
	}
	return idx
}

// Record adds one observation. It is allocation-free and safe for
// concurrent use: an index computation, three atomic adds, and two
// bounded CAS loops for min/max.
func (h *Histogram) Record(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.buckets[bucketIndex(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		old := h.min.Load()
		if ns >= old || h.min.CompareAndSwap(old, ns) {
			break
		}
	}
	for {
		old := h.max.Load()
		if ns <= old || h.max.CompareAndSwap(old, ns) {
			break
		}
	}
}

// HistSnapshot is a point-in-time copy of a histogram with derived
// quantiles. All durations are nanoseconds. Quantiles are estimated by
// linear interpolation inside the bucket that crosses the rank, so
// their error is bounded by the bucket width (a factor of two).
type HistSnapshot struct {
	Count   int64
	SumNs   int64
	MinNs   int64
	MaxNs   int64
	P50Ns   int64
	P95Ns   int64
	P99Ns   int64
	Buckets [numBuckets]int64
}

// Mean returns the arithmetic mean in nanoseconds (0 when empty).
func (s HistSnapshot) Mean() int64 {
	if s.Count == 0 {
		return 0
	}
	return s.SumNs / s.Count
}

// Snapshot copies the histogram state and computes p50/p95/p99.
// Concurrent Records during the copy can skew counts by a few
// observations; snapshots are for reporting, not accounting.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	s.Count = h.count.Load()
	s.SumNs = h.sum.Load()
	s.MinNs = h.min.Load()
	s.MaxNs = h.max.Load()
	if s.Count == 0 {
		s.MinNs = 0
		return s
	}
	// A snapshot that races the first Record can see its count before
	// its min.
	if s.MinNs == math.MaxInt64 {
		s.MinNs = 0
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.P50Ns = s.quantile(0.50)
	s.P95Ns = s.quantile(0.95)
	s.P99Ns = s.quantile(0.99)
	return s
}

// quantile walks the cumulative bucket counts to the target rank and
// interpolates within the crossing bucket. Results are clamped to the
// observed [min, max] so tiny samples don't report a p99 beyond the
// slowest observation actually seen.
func (s HistSnapshot) quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	target := q * float64(s.Count)
	var cum int64
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		if float64(cum+n) >= target {
			lower := int64(0)
			if i > 0 {
				lower = BucketBound(i - 1)
			}
			upper := BucketBound(i)
			if i == numBounds || upper > s.MaxNs {
				upper = s.MaxNs
			}
			if lower < s.MinNs {
				lower = s.MinNs
			}
			if upper < lower {
				upper = lower
			}
			frac := (target - float64(cum)) / float64(n)
			v := float64(lower) + frac*float64(upper-lower)
			return clampNs(int64(v), s.MinNs, s.MaxNs)
		}
		cum += n
	}
	return s.MaxNs
}

func clampNs(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
