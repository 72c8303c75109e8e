// Package lendcheck checks the read-only rule of the enclave's ocall
// surface (DESIGN.md §14.1): a buffer that GetVersioned returns is lent,
// often straight out of an untrusted cache, and nobody writes into it.
//
// The caches report what they lend (Lent) and when they replace or drop
// an entry (Dropped, DroppedAll). While a test watches (Watch), the
// ledger records a checksum of each lent buffer and re-verifies it when
// the entry is next lent, replaced or dropped, and when the test ends; a
// changed byte fails the test. While no test watches, each report is one
// atomic load.
package lendcheck

import (
	"hash/crc32"
	"sync"
	"sync/atomic"
)

// TB is the part of testing.TB the ledger reports through.
type TB interface {
	Helper()
	Errorf(format string, args ...any)
	Cleanup(func())
}

type key struct {
	owner any // the cache that lent the buffer
	name  string
}

type loan struct {
	data []byte
	sum  uint32
}

type ledger struct {
	tb    TB
	mu    sync.Mutex
	loans map[key]loan // guarded by mu
}

var active atomic.Pointer[ledger]

// Watch checks every buffer lent from now until tb ends. Watches do not
// nest.
func Watch(tb TB) {
	tb.Helper()
	l := &ledger{tb: tb, loans: make(map[key]loan)}
	if !active.CompareAndSwap(nil, l) {
		tb.Errorf("lendcheck: already watching")
		return
	}
	tb.Cleanup(func() {
		active.CompareAndSwap(l, nil)
		l.mu.Lock()
		defer l.mu.Unlock()
		for k, ln := range l.loans {
			l.verifyLocked(k, ln, "at the end of the test")
		}
	})
}

// Lent reports that owner lends data as the contents of name.
func Lent(owner any, name string, data []byte) {
	l := active.Load()
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	k := key{owner, name}
	if ln, ok := l.loans[k]; ok {
		l.verifyLocked(k, ln, "when lent again")
	}
	l.loans[k] = loan{data: data, sum: crc32.ChecksumIEEE(data)}
}

// Dropped reports that owner replaced or dropped its entry for name.
func Dropped(owner any, name string) {
	l := active.Load()
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	k := key{owner, name}
	if ln, ok := l.loans[k]; ok {
		l.verifyLocked(k, ln, "when dropped")
		delete(l.loans, k)
	}
}

// DroppedAll reports that owner dropped every entry.
func DroppedAll(owner any) {
	l := active.Load()
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for k, ln := range l.loans {
		if k.owner == owner {
			l.verifyLocked(k, ln, "when dropped")
			delete(l.loans, k)
		}
	}
}

func (l *ledger) verifyLocked(k key, ln loan, when string) {
	if crc32.ChecksumIEEE(ln.data) != ln.sum {
		l.tb.Errorf("lendcheck: the %d bytes %T lent as %s were written after the loan (seen %s)",
			len(ln.data), k.owner, k.name, when)
	}
}
