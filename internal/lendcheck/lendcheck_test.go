package lendcheck

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// fakeTB records what the ledger reports and runs its cleanups on end.
type fakeTB struct {
	errs     []string
	cleanups []func()
}

func (f *fakeTB) Helper() {}
func (f *fakeTB) Errorf(format string, args ...any) {
	f.errs = append(f.errs, fmt.Sprintf(format, args...))
}
func (f *fakeTB) Cleanup(fn func()) { f.cleanups = append(f.cleanups, fn) }

func (f *fakeTB) end() {
	for i := len(f.cleanups) - 1; i >= 0; i-- {
		f.cleanups[i]()
	}
}

// TestWriteIntoLoanIsReported: a byte changed in a lent buffer is
// reported when the entry is next lent, when it is dropped, when its
// owner drops everything, and at the end of the test; an untouched loan
// and a loan made while nobody watches are not.
func TestWriteIntoLoanIsReported(t *testing.T) {
	owner := new(int)
	for _, c := range []struct {
		seen string
		act  func(buf []byte)
	}{
		{"when lent again", func(buf []byte) { Lent(owner, "x", buf) }},
		{"when dropped", func([]byte) { Dropped(owner, "x") }},
		{"when dropped", func([]byte) { DroppedAll(owner) }},
		{"at the end of the test", func([]byte) {}},
	} {
		tb := &fakeTB{}
		Watch(tb)
		buf := []byte("sealed bytes")
		Lent(owner, "x", buf)
		Lent(owner, "y", []byte("other bytes"))
		buf[0] ^= 1
		c.act(buf)
		tb.end()
		if len(tb.errs) != 1 || !strings.Contains(tb.errs[0], "lent as x") || !strings.Contains(tb.errs[0], c.seen) {
			t.Fatalf("%s: reports %q, want one about x %s", c.seen, tb.errs, c.seen)
		}
	}
	buf := []byte("unwatched")
	Lent(owner, "z", buf)
	buf[0] ^= 1
	tb := &fakeTB{}
	Watch(tb)
	tb.end()
	if len(tb.errs) != 0 {
		t.Fatalf("a loan made while nobody watched was reported: %q", tb.errs)
	}
}

// TestConcurrentLoans lends, re-lends and drops from four goroutines at
// once, as two adapters and their caches do under one watched test: the
// race detector checks that the ledger is touched only under its lock,
// and no untouched loan is reported.
func TestConcurrentLoans(t *testing.T) {
	tb := &fakeTB{}
	Watch(tb)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			owner := new(int)
			for i := 0; i < 100; i++ {
				name := fmt.Sprint(i % 8)
				Lent(owner, name, []byte(name))
				switch i % 16 {
				case 7:
					Dropped(owner, name)
				case 15:
					DroppedAll(owner)
				}
			}
		}()
	}
	wg.Wait()
	tb.end()
	if len(tb.errs) != 0 {
		t.Fatalf("untouched loans were reported: %q", tb.errs)
	}
}
