package afs

import (
	"errors"
	"testing"
	"time"

	"nexus/internal/backend"
)

func TestRetryPolicyDefaults(t *testing.T) {
	p := RetryPolicy{}.withDefaults()
	if p.MaxAttempts != defaultAttempts || p.BaseBackoff != defaultBase || p.MaxBackoff != defaultMax {
		t.Fatalf("zero policy defaults = %+v", p)
	}

	// Out-of-range fields are sanitized, not trusted.
	q := RetryPolicy{
		MaxAttempts: -3,
		BaseBackoff: 10 * time.Millisecond,
		MaxBackoff:  time.Millisecond, // below base: raised to base
	}.withDefaults()
	if q.MaxAttempts != defaultAttempts {
		t.Fatalf("negative MaxAttempts kept: %d", q.MaxAttempts)
	}
	if q.MaxBackoff != q.BaseBackoff {
		t.Fatalf("MaxBackoff %v below BaseBackoff %v", q.MaxBackoff, q.BaseBackoff)
	}
}

func TestBackoffMonotoneAndBounded(t *testing.T) {
	p := RetryPolicy{
		BaseBackoff: time.Millisecond,
		MaxBackoff:  100 * time.Millisecond,
	}.withDefaults()
	want := []time.Duration{
		time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond,
		8 * time.Millisecond, 16 * time.Millisecond, 32 * time.Millisecond,
		64 * time.Millisecond, 100 * time.Millisecond, 100 * time.Millisecond,
	}
	for i, w := range want {
		if got := p.backoffAt(i + 1); got != w {
			t.Fatalf("backoffAt(%d) = %v, want %v", i+1, got, w)
		}
	}
	// n below 1 is clamped, not panicking or returning zero.
	if got := p.backoffAt(0); got != time.Millisecond {
		t.Fatalf("backoffAt(0) = %v, want base", got)
	}
}

func TestJitterDeterministicPerSeed(t *testing.T) {
	p := RetryPolicy{Seed: 1234, BaseBackoff: 10 * time.Millisecond}
	a, b := newRetryState(p), newRetryState(p)
	for n := 1; n <= 10; n++ {
		wa, wb := a.wait(n), b.wait(n)
		if wa != wb {
			t.Fatalf("same seed diverged at wait(%d): %v != %v", n, wa, wb)
		}
		base := a.policy.backoffAt(n)
		if wa < base || wa > base+time.Duration(jitterFrac*float64(base))+1 {
			t.Fatalf("wait(%d) = %v outside [%v, base+20%%]", n, wa, base)
		}
	}
	c := newRetryState(RetryPolicy{Seed: 1235, BaseBackoff: 10 * time.Millisecond})
	diverged := false
	d := newRetryState(p)
	for n := 1; n <= 10; n++ {
		if c.wait(n) != d.wait(n) {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("different jitter seeds produced identical wait sequences")
	}
}

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		op   opCode
		want bool
	}{
		{opFetch, true}, {opStat, true}, {opList, true}, {opPing, true},
		{opStore, false}, {opRemove, false}, {opLock, false}, {opUnlock, false},
		{opHello, false}, {opReply, false}, {opError, false}, {opInvalidate, false},
	}
	for _, tc := range cases {
		if got := retryable(tc.op); got != tc.want {
			t.Errorf("retryable(%s) = %v, want %v", tc.op, got, tc.want)
		}
	}
}

func TestTypedErrorsWrapBackendSentinels(t *testing.T) {
	if !errors.Is(ErrTimeout, backend.ErrTimeout) {
		t.Error("ErrTimeout does not wrap backend.ErrTimeout")
	}
	if !errors.Is(ErrUnavailable, backend.ErrUnavailable) {
		t.Error("ErrUnavailable does not wrap backend.ErrUnavailable")
	}
	if !errors.Is(ErrInterrupted, backend.ErrInterrupted) {
		t.Error("ErrInterrupted does not wrap backend.ErrInterrupted")
	}
	for _, err := range []error{ErrTimeout, ErrUnavailable, ErrInterrupted} {
		if !backend.IsUnavailable(err) {
			t.Errorf("backend.IsUnavailable(%v) = false", err)
		}
	}
	if backend.IsUnavailable(backend.ErrNotExist) {
		t.Error("IsUnavailable matched ErrNotExist")
	}
}
