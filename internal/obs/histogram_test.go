package obs

import (
	"math"
	"testing"
	"time"
)

func TestBucketIndexBoundaries(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{0, 0},
		{1, 0},
		{999, 0},
		{1000, 0},            // inclusive upper bound of bucket 0
		{1001, 1},            // first value of bucket 1
		{2000, 1},            // inclusive upper bound of bucket 1
		{2001, 2},            // first value of bucket 2
		{4000, 2},            //
		{4001, 3},            //
		{1 << 40, numBounds}, // far beyond the ladder: overflow
	}
	for _, c := range cases {
		if got := bucketIndex(c.ns); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
	// The top regular bucket and the first overflow value.
	top := BucketBound(numBounds - 1)
	if got := bucketIndex(top); got != numBounds-1 {
		t.Errorf("bucketIndex(top bound %d) = %d, want %d", top, got, numBounds-1)
	}
	if got := bucketIndex(top + 1); got != numBounds {
		t.Errorf("bucketIndex(top bound+1) = %d, want overflow %d", got, numBounds)
	}
}

func TestBucketBound(t *testing.T) {
	if got := BucketBound(0); got != 1000 {
		t.Errorf("BucketBound(0) = %d, want 1000", got)
	}
	if got := BucketBound(1); got != 2000 {
		t.Errorf("BucketBound(1) = %d, want 2000", got)
	}
	if got := BucketBound(numBounds); got != math.MaxInt64 {
		t.Errorf("BucketBound(overflow) = %d, want MaxInt64", got)
	}
}

func TestHistogramEmptySnapshot(t *testing.T) {
	h := newHistogram()
	s := h.Snapshot()
	if s.Count != 0 || s.SumNs != 0 || s.MinNs != 0 || s.MaxNs != 0 {
		t.Errorf("empty snapshot = %+v, want zeroes", s)
	}
	if s.Mean() != 0 {
		t.Errorf("empty Mean() = %d, want 0", s.Mean())
	}
}

func TestHistogramSingleValue(t *testing.T) {
	h := newHistogram()
	h.Record(1500 * time.Nanosecond)
	s := h.Snapshot()
	if s.Count != 1 || s.SumNs != 1500 || s.MinNs != 1500 || s.MaxNs != 1500 {
		t.Fatalf("snapshot = %+v", s)
	}
	// With one observation every quantile must clamp to it.
	for _, q := range []int64{s.P50Ns, s.P95Ns, s.P99Ns} {
		if q != 1500 {
			t.Errorf("quantile = %d, want 1500", q)
		}
	}
}

func TestHistogramQuantileInterpolation(t *testing.T) {
	// 90 observations in bucket 1 (1µs, 2µs] and 10 in bucket 2
	// (2µs, 4µs] give exactly computable interpolated quantiles.
	h := newHistogram()
	for i := 0; i < 90; i++ {
		h.Record(1500 * time.Nanosecond)
	}
	for i := 0; i < 10; i++ {
		h.Record(3000 * time.Nanosecond)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	// p50: rank 50 inside bucket 1, lower clamped to min(1500),
	// upper 2000: 1500 + (50/90)*(2000-1500) = 1777.
	if s.P50Ns != 1777 {
		t.Errorf("p50 = %d, want 1777", s.P50Ns)
	}
	// p95: rank 95, 5 into bucket 2's 10; lower 2000, upper clamped to
	// max(3000): 2000 + 0.5*1000 = 2500.
	if s.P95Ns != 2500 {
		t.Errorf("p95 = %d, want 2500", s.P95Ns)
	}
	// p99: 9 into bucket 2's 10: 2000 + 0.9*1000 = 2900.
	if s.P99Ns != 2900 {
		t.Errorf("p99 = %d, want 2900", s.P99Ns)
	}
	if s.P50Ns > s.P95Ns || s.P95Ns > s.P99Ns {
		t.Errorf("quantiles not monotonic: %d %d %d", s.P50Ns, s.P95Ns, s.P99Ns)
	}
	if s.Mean() != (90*1500+10*3000)/100 {
		t.Errorf("mean = %d", s.Mean())
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := newHistogram()
	h.Record(20 * time.Second) // beyond the ~16.8s top bound
	s := h.Snapshot()
	if s.Buckets[numBounds] != 1 {
		t.Errorf("overflow bucket = %d, want 1", s.Buckets[numBounds])
	}
	if s.MaxNs != int64(20*time.Second) {
		t.Errorf("max = %d", s.MaxNs)
	}
	// Quantiles in the overflow bucket clamp to the observed max.
	if s.P99Ns != s.MaxNs {
		t.Errorf("p99 = %d, want max %d", s.P99Ns, s.MaxNs)
	}
}

func TestHistogramNegativeDurationClampsToZero(t *testing.T) {
	h := newHistogram()
	h.Record(-time.Second)
	s := h.Snapshot()
	if s.Count != 1 || s.SumNs != 0 || s.MinNs != 0 || s.MaxNs != 0 {
		t.Errorf("snapshot after negative record = %+v", s)
	}
}
