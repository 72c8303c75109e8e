package cryptofs

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"nexus/internal/backend"
)

func setup(t *testing.T) (*FS, *User, *User, *backend.MemStore) {
	t.Helper()
	owner, err := NewUser("owen")
	if err != nil {
		t.Fatal(err)
	}
	alice, err := NewUser("alice")
	if err != nil {
		t.Fatal(err)
	}
	store := backend.NewMemStore()
	fs := New(store, owner)
	fs.AddUser(alice)
	return fs, owner, alice, store
}

func TestWriteReadSharing(t *testing.T) {
	fs, owner, alice, store := setup(t)
	data := []byte("shared secret document")
	if err := fs.WriteFile("/doc", data, []string{"alice"}); err != nil {
		t.Fatal(err)
	}
	for _, u := range []*User{owner, alice} {
		got, err := fs.ReadFile("/doc", u)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s read = %q, %v", u.Name, got, err)
		}
	}
	// A user without a wrapped key is denied.
	bob, err := NewUser("bob")
	if err != nil {
		t.Fatal(err)
	}
	fs.AddUser(bob)
	if _, err := fs.ReadFile("/doc", bob); !errors.Is(err, ErrNoAccess) {
		t.Fatalf("bob read = %v, want ErrNoAccess", err)
	}
	// Ciphertext on the store.
	names, err := store.List("")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		blob, err := store.Get(n)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(blob, data) {
			t.Fatalf("object %s contains plaintext", n)
		}
	}
}

func TestRevocationCostsScaleWithData(t *testing.T) {
	fs, _, alice, _ := setup(t)
	_ = alice

	// Two populations mirroring §VII-E: many small files vs few large.
	const smallCount, smallSize = 64, 1 << 10
	const largeCount, largeSize = 4, 256 << 10
	var smallPaths, largePaths []string
	for i := 0; i < smallCount; i++ {
		p := fmt.Sprintf("/small/%d", i)
		smallPaths = append(smallPaths, p)
		if err := fs.WriteFile(p, make([]byte, smallSize), []string{"alice"}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < largeCount; i++ {
		p := fmt.Sprintf("/large/%d", i)
		largePaths = append(largePaths, p)
		if err := fs.WriteFile(p, make([]byte, largeSize), []string{"alice"}); err != nil {
			t.Fatal(err)
		}
	}

	smallStats, err := fs.Revoke("alice", smallPaths)
	if err != nil {
		t.Fatal(err)
	}
	if smallStats.FilesTouched != smallCount {
		t.Fatalf("small FilesTouched = %d", smallStats.FilesTouched)
	}
	if smallStats.BytesReencrypted != smallCount*smallSize {
		t.Fatalf("small BytesReencrypted = %d", smallStats.BytesReencrypted)
	}

	// Re-grant is required for a second revocation to do work.
	largeStats, err := fs.Revoke("alice", largePaths)
	if err != nil {
		t.Fatal(err)
	}
	if largeStats.BytesReencrypted != largeCount*largeSize {
		t.Fatalf("large BytesReencrypted = %d", largeStats.BytesReencrypted)
	}
	// The defining property of the pure-crypto baseline: revocation cost
	// is proportional to data volume.
	if largeStats.BytesReencrypted <= smallStats.BytesReencrypted {
		t.Fatal("large-file revocation not more expensive than small-file")
	}
}

func TestRevokedUserLosesAccessAndOthersKeep(t *testing.T) {
	fs, owner, alice, _ := setup(t)
	bob, err := NewUser("bob")
	if err != nil {
		t.Fatal(err)
	}
	fs.AddUser(bob)
	if err := fs.WriteFile("/f", []byte("data"), []string{"alice", "bob"}); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Revoke("alice", []string{"/f"}); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile("/f", alice); !errors.Is(err, ErrNoAccess) {
		t.Fatalf("revoked alice read = %v", err)
	}
	for _, u := range []*User{owner, bob} {
		got, err := fs.ReadFile("/f", u)
		if err != nil || string(got) != "data" {
			t.Fatalf("%s read after revocation = %q, %v", u.Name, got, err)
		}
	}
	readers, err := fs.Readers("/f")
	if err != nil || len(readers) != 2 {
		t.Fatalf("Readers = %v, %v", readers, err)
	}
}

func TestRevokeNoAccessIsFree(t *testing.T) {
	fs, _, _, _ := setup(t)
	if err := fs.WriteFile("/private", []byte("owner only"), nil); err != nil {
		t.Fatal(err)
	}
	stats, err := fs.Revoke("alice", []string{"/private"})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FilesTouched != 0 || stats.BytesReencrypted != 0 {
		t.Fatalf("revoking a non-reader cost %+v", stats)
	}
}

func TestKeyWrapsScaleWithSharingDegree(t *testing.T) {
	fs, _, _, _ := setup(t)
	var names []string
	for i := 0; i < 10; i++ {
		u, err := NewUser(fmt.Sprintf("user%d", i))
		if err != nil {
			t.Fatal(err)
		}
		fs.AddUser(u)
		names = append(names, u.Name)
	}
	if err := fs.WriteFile("/wide", []byte("widely shared"), names); err != nil {
		t.Fatal(err)
	}
	fs.ResetStats()
	stats, err := fs.Revoke("user0", []string{"/wide"})
	if err != nil {
		t.Fatal(err)
	}
	// owner + 9 remaining users re-wrapped.
	if stats.KeyWraps != 10 {
		t.Fatalf("KeyWraps = %d, want 10", stats.KeyWraps)
	}
}

func TestUnknownTargets(t *testing.T) {
	fs, _, _, _ := setup(t)
	if err := fs.WriteFile("/f", nil, []string{"ghost"}); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("unknown reader = %v", err)
	}
	if _, err := fs.Revoke("alice", []string{"/missing"}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("revoke on missing file = %v", err)
	}
	owner, _ := NewUser("o")
	if _, err := fs.ReadFile("/missing", owner); !errors.Is(err, ErrNotFound) {
		t.Fatalf("read missing = %v", err)
	}
}

// TestParallelRevokeMatchesSerial runs the same revocation under serial
// and parallel fan-out widths (Revoke fans out across GOMAXPROCS) and
// requires identical meters and identical post-revocation access
// semantics.
func TestParallelRevokeMatchesSerial(t *testing.T) {
	const files = 24
	build := func(t *testing.T, procs int) (*FS, *User, Stats) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		fs, owner, _, _ := setup(t)
		var paths []string
		for i := 0; i < files; i++ {
			p := fmt.Sprintf("/f%03d", i)
			paths = append(paths, p)
			if err := fs.WriteFile(p, bytes.Repeat([]byte{byte(i)}, 2048), []string{"alice"}); err != nil {
				t.Fatal(err)
			}
		}
		stats, err := fs.Revoke("alice", paths)
		if err != nil {
			t.Fatal(err)
		}
		return fs, owner, stats
	}

	_, _, serial := build(t, 1)
	for _, w := range []int{2, 8} {
		fs, owner, par := build(t, w)
		if par != serial {
			t.Fatalf("workers %d: stats %+v != serial %+v", w, par, serial)
		}
		// Owner still reads every file; the content survived re-encryption.
		for i := 0; i < files; i++ {
			got, err := fs.ReadFile(fmt.Sprintf("/f%03d", i), owner)
			if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{byte(i)}, 2048)) {
				t.Fatalf("workers %d: owner read f%03d: %v", w, i, err)
			}
		}
	}
}

// TestParallelRevokeMissingFileFails exercises the error path through
// the fan-out: a missing file aborts with ErrNotFound under any width.
func TestParallelRevokeMissingFileFails(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	fs, _, _, _ := setup(t)
	if err := fs.WriteFile("/present", []byte("x"), []string{"alice"}); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Revoke("alice", []string{"/present", "/missing"}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("parallel revoke with missing file = %v, want ErrNotFound", err)
	}
}

// A data object truncated by the store is untrusted input: both callers
// of the decrypt tail must get an error, not an out-of-range slice.
func TestTruncatedCiphertextFailsClosed(t *testing.T) {
	fs, owner, _, store := setup(t)
	if err := fs.WriteFile("/doc", []byte("shared secret document"), []string{"alice"}); err != nil {
		t.Fatal(err)
	}
	ct, err := store.Get(dataName("/doc"))
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(dataName("/doc"), ct[:5]); err != nil {
		t.Fatal(err)
	}
	_, readErr := fs.ReadFile("/doc", owner)
	if readErr == nil {
		t.Fatal("ReadFile over a 5-byte data object succeeded")
	}
	_, revokeErr := fs.Revoke("alice", []string{"/doc"})
	if revokeErr == nil {
		t.Fatal("Revoke over a 5-byte data object succeeded")
	}
	if revokeErr.Error() != readErr.Error() {
		t.Fatalf("Revoke err = %q, ReadFile err = %q; want the same text", revokeErr, readErr)
	}
}
