// Tests of the barrier ops' one commit with the drain (DESIGN.md §12.4):
// the unlink of a file with other links clears the name before the count
// drops, in one commit, and SetACL and RemoveUser seal the pending
// metadata after their own change, in the commit that makes it.
package enclave_test

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"slices"
	"sync"
	"testing"

	"nexus/internal/acl"
	"nexus/internal/enclave"
	"nexus/internal/metadata"
)

// TestRemoveOfALinkLeavesNoShortCount: a file with two links loses one on
// a client that then dies before any drain. The name and the count leave
// in one commit, the name first, so the store never holds a directory that
// names the file with a count one short; a fresh client that unlinks the
// other name, the last, leaves no name of the deleted file behind.
func TestRemoveOfALinkLeavesNoShortCount(t *testing.T) {
	v, e, _ := newCommitVolume(t)
	if err := e.Mkdir("/a"); err != nil {
		t.Fatal(err)
	}
	if err := e.SaveFile("/a/f", []byte("two names"), true); err != nil {
		t.Fatal(err)
	}
	if err := e.Hardlink("/a/f", "/a/g"); err != nil {
		t.Fatal(err)
	}
	if err := e.Remove("/a/f"); err != nil {
		t.Fatal(err)
	}
	// e is abandoned here, its dirty set undrained.

	fresh, _ := v.client(t)
	if err := fresh.Remove("/a/g"); err != nil {
		t.Fatal(err)
	}
	if err := fresh.SyncMetadata(); err != nil {
		t.Fatal(err)
	}
	list, err := fresh.Filldir("/a")
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 0 {
		t.Fatalf("/a lists %v after both links were removed", list)
	}
	again, _ := v.client(t)
	if _, err := again.ReadFile("/a/f"); !errors.Is(err, enclave.ErrNotFound) {
		t.Fatalf("reading the removed name /a/f: %v, want ErrNotFound", err)
	}
}

// putLog records the preamble of every sealed object one enclave puts, in
// order; the sealed root is recorded by its type alone.
type putLog struct {
	mu   sync.Mutex
	puts []metadata.Preamble
}

func (l *putLog) record(op, _ string, data []byte) {
	if op != "put" {
		return
	}
	p, err := metadata.PeekPreamble(data)
	if err != nil {
		return // a data object
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.puts = append(l.puts, p)
}

func (l *putLog) take() []metadata.Preamble {
	l.mu.Lock()
	defer l.mu.Unlock()
	puts := l.puts
	l.puts = nil
	return puts
}

func countType(puts []metadata.Preamble, typ metadata.ObjType) int {
	n := 0
	for _, p := range puts {
		if p.Type == typ {
			n++
		}
	}
	return n
}

// TestBarrierSealsPendingAfterItsChange: SetACL and RemoveUser leave no
// metadata of before their change pending (§VII-E), and seal what is
// pending after the change, in the one commit that makes it. A directory
// created and not yet drained, then given an ACL, is put once, at version
// 1, carrying the ACL; a pending remove's directory is put after the
// supernode a revocation rotates. Each op puts the root once.
func TestBarrierSealsPendingAfterItsChange(t *testing.T) {
	v, e, hooks := newCommitVolume(t)
	bob, _, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddUser("bob", bob); err != nil {
		t.Fatal(err)
	}
	if err := e.Mkdir("/a"); err != nil {
		t.Fatal(err)
	}
	if err := e.SaveFile("/a/f", []byte("pending remove"), true); err != nil {
		t.Fatal(err)
	}
	log := &putLog{}
	hooks.setHook(log.record)
	defer hooks.setHook(nil)

	if err := e.Mkdir("/a/sub"); err != nil {
		t.Fatal(err)
	}
	log.take()
	if err := e.SetACL("/a/sub", "bob", acl.Read); err != nil {
		t.Fatal(err)
	}
	puts := log.take()
	var sub []metadata.Preamble
	for _, p := range puts {
		if p.Type == metadata.TypeDirnode && p.Version == 1 {
			sub = append(sub, p)
		}
	}
	if len(sub) != 1 || slices.ContainsFunc(puts, func(p metadata.Preamble) bool { return p.UUID == sub[0].UUID && p.Version != 1 }) {
		t.Fatalf("SetACL on a pending directory: puts %v, want the new directory once, at version 1", puts)
	}
	if n := countType(puts, metadata.TypeFreshness); n != 1 {
		t.Fatalf("SetACL with pending metadata put the root %d times, want once", n)
	}
	fresh, _ := v.client(t)
	got, err := fresh.GetACL("/a/sub")
	if err != nil {
		t.Fatal(err)
	}
	if got["bob"] != acl.Read {
		t.Fatalf("the pending directory was stored with ACL %v, want bob's read right", got)
	}

	if err := e.Remove("/a/f"); err != nil {
		t.Fatal(err)
	}
	log.take()
	if err := e.RemoveUser("bob"); err != nil {
		t.Fatal(err)
	}
	puts = log.take()
	super := slices.IndexFunc(puts, func(p metadata.Preamble) bool { return p.Type == metadata.TypeSupernode })
	dir := slices.IndexFunc(puts, func(p metadata.Preamble) bool { return p.Type == metadata.TypeDirnode })
	if super < 0 || dir < super {
		t.Fatalf("RemoveUser with a pending remove: puts %v, want the rotated supernode before the pending directory", puts)
	}
	if n := countType(puts, metadata.TypeFreshness); n != 1 {
		t.Fatalf("RemoveUser with pending metadata put the root %d times, want once", n)
	}
	if got, err := fresh.ReadFile("/a/f"); !errors.Is(err, enclave.ErrNotFound) {
		t.Fatalf("after RemoveUser the pending remove is not on the store: read %q, %v", bytes.Clone(got), err)
	}
}
