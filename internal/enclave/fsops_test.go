package enclave

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"nexus/internal/acl"
	"nexus/internal/backend"
	"nexus/internal/metadata"
	"nexus/internal/sgx"
	"nexus/internal/uuid"
)

func TestTouchWriteReadRoundTrip(t *testing.T) {
	owner := newIdentity(t, "owen")
	env, _, _ := newMountedVolume(t, owner)
	e := env.enclave

	if err := e.Touch("/hello.txt"); err != nil {
		t.Fatalf("Touch: %v", err)
	}
	data := []byte("plaintext file contents")
	if err := e.WriteFile("/hello.txt", data); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := e.ReadFile("/hello.txt")
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("ReadFile = %q", got)
	}

	// Empty file reads as empty.
	if err := e.Touch("/empty"); err != nil {
		t.Fatal(err)
	}
	got, err = e.ReadFile("/empty")
	if err != nil || len(got) != 0 {
		t.Fatalf("empty read = %q, %v", got, err)
	}
}

func TestCiphertextOnStore(t *testing.T) {
	owner := newIdentity(t, "owen")
	env, _, _ := newMountedVolume(t, owner)
	e := env.enclave

	secret := []byte("this must never appear on the storage service in the clear")
	if err := e.Touch("/secret"); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteFile("/secret", secret); err != nil {
		t.Fatal(err)
	}
	names, err := env.store.mem.List("")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		blob, _, err := env.store.GetVersioned(n)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(blob, secret) {
			t.Fatalf("object %s contains plaintext", n)
		}
		if bytes.Contains(blob, []byte("secret")) {
			t.Fatalf("object %s leaks the file name", n)
		}
	}
	// Object names are obfuscated UUIDs plus the supernode.
	for _, n := range names {
		if n == SupernodeObjectName {
			continue
		}
		if len(n) != 32 {
			t.Fatalf("object name %q is not an obfuscated UUID", n)
		}
	}
}

func TestMkdirNestedAndFilldir(t *testing.T) {
	owner := newIdentity(t, "owen")
	env, _, _ := newMountedVolume(t, owner)
	e := env.enclave

	for _, d := range []string{"/a", "/a/b", "/a/b/c"} {
		if err := e.Mkdir(d); err != nil {
			t.Fatalf("Mkdir(%s): %v", d, err)
		}
	}
	if err := e.Touch("/a/b/c/file"); err != nil {
		t.Fatal(err)
	}
	if err := e.Touch("/a/other"); err != nil {
		t.Fatal(err)
	}

	entries, err := e.Filldir("/a")
	if err != nil {
		t.Fatalf("Filldir: %v", err)
	}
	if len(entries) != 2 || entries[0].Name != "b" || entries[1].Name != "other" {
		t.Fatalf("Filldir(/a) = %+v", entries)
	}
	entries, err = e.Filldir("/a/b/c")
	if err != nil || len(entries) != 1 || entries[0].Name != "file" {
		t.Fatalf("Filldir(/a/b/c) = %+v, %v", entries, err)
	}
	// Root listing.
	entries, err = e.Filldir("/")
	if err != nil || len(entries) != 1 || entries[0].Name != "a" {
		t.Fatalf("Filldir(/) = %+v, %v", entries, err)
	}
}

func TestLookupStat(t *testing.T) {
	owner := newIdentity(t, "owen")
	env, _, _ := newMountedVolume(t, owner)
	e := env.enclave

	if err := e.Mkdir("/dir"); err != nil {
		t.Fatal(err)
	}
	if err := e.Touch("/dir/f"); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteFile("/dir/f", make([]byte, 12345)); err != nil {
		t.Fatal(err)
	}

	st, err := e.Lookup("/dir/f")
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if st.Kind != metadata.KindFile || st.Size != 12345 || st.Links != 1 {
		t.Fatalf("Lookup = %+v", st)
	}
	st, err = e.Lookup("/dir")
	if err != nil || st.Kind != metadata.KindDir {
		t.Fatalf("Lookup(/dir) = %+v, %v", st, err)
	}
	if _, err := e.Lookup("/missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Lookup(missing) = %v", err)
	}
	if _, err := e.Lookup("/dir/f/x"); !errors.Is(err, ErrNotDir) {
		t.Fatalf("Lookup through file = %v", err)
	}
}

func TestRemoveSemantics(t *testing.T) {
	owner := newIdentity(t, "owen")
	env, _, _ := newMountedVolume(t, owner)
	e := env.enclave

	if err := e.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := e.Touch("/d/f"); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteFile("/d/f", []byte("data")); err != nil {
		t.Fatal(err)
	}

	// Non-empty directory cannot be removed.
	if err := e.Remove("/d"); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("Remove non-empty = %v", err)
	}
	objectsBefore := env.store.mem.Size()
	if err := e.Remove("/d/f"); err != nil {
		t.Fatalf("Remove file: %v", err)
	}
	// Removing the file drops its filenode and data object.
	if got := env.store.mem.Size(); got >= objectsBefore {
		t.Fatalf("objects after file removal = %d, before = %d", got, objectsBefore)
	}
	if _, err := e.ReadFile("/d/f"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("read after remove = %v", err)
	}
	if err := e.Remove("/d"); err != nil {
		t.Fatalf("Remove empty dir: %v", err)
	}
	if _, err := e.Filldir("/d"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Filldir after rmdir = %v", err)
	}
	if err := e.Remove("/missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Remove missing = %v", err)
	}
}

// TestRetiredLayoutFilenodeFailsClosed: a filenode in the content-defined
// layout — the body the last commit with that layout encoded, sealed under
// this volume's rootkey as that commit would have — fails every operation
// that loads it with metadata.ErrUnsupportedLayout, and that layout's
// leftover objects are never fetched: the unreadable "cas-refs" here would
// fail any operation that did.
func TestRetiredLayoutFilenodeFailsClosed(t *testing.T) {
	owner := newIdentity(t, "owen")
	env, _, _ := newMountedVolume(t, owner)
	e := env.enclave
	for _, stray := range []string{"cas-refs", "cas-0123abcd"} {
		if _, err := env.store.PutVersioned(stray, []byte("not a sealed object")); err != nil {
			t.Fatal(err)
		}
	}
	write := func(name string) {
		t.Helper()
		if err := e.Touch(name); err != nil {
			t.Fatal(err)
		}
		if err := e.WriteFile(name, []byte("fixed chunks")); err != nil {
			t.Fatal(err)
		}
	}
	write("/f")
	golden, err := os.ReadFile(filepath.Join("..", "metadata", "testdata", "extent-layout.body"))
	if err != nil {
		t.Fatal(err)
	}
	// /f's filenode is the only one on the store.
	names, err := env.store.mem.List("")
	if err != nil {
		t.Fatal(err)
	}
	swapped := 0
	for _, name := range names {
		blob, _, err := env.store.GetVersioned(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := metadata.PeekPreamble(blob)
		if err != nil || p.Type != metadata.TypeFilenode {
			continue
		}
		p.Version++
		sealed, err := metadata.Seal(e.rootKey, p, golden)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := env.store.PutVersioned(name, sealed); err != nil {
			t.Fatal(err)
		}
		swapped++
	}
	if swapped != 1 {
		t.Fatalf("found %d filenodes on the store, want 1", swapped)
	}
	write("/kept")

	if _, err := e.ReadFile("/f"); !errors.Is(err, metadata.ErrUnsupportedLayout) {
		t.Fatalf("ReadFile = %v, want ErrUnsupportedLayout", err)
	}
	if err := e.WriteFile("/f", []byte("new")); !errors.Is(err, metadata.ErrUnsupportedLayout) {
		t.Fatalf("WriteFile = %v, want ErrUnsupportedLayout", err)
	}
	if _, err := e.Lookup("/f"); !errors.Is(err, metadata.ErrUnsupportedLayout) {
		t.Fatalf("Lookup = %v, want ErrUnsupportedLayout", err)
	}
	// The rest of the volume is untouched.
	if got, err := e.ReadFile("/kept"); err != nil || string(got) != "fixed chunks" {
		t.Fatalf("ReadFile(/kept) = %q, %v", got, err)
	}
	if err := e.Remove("/kept"); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateCreateRejected(t *testing.T) {
	owner := newIdentity(t, "owen")
	env, _, _ := newMountedVolume(t, owner)
	e := env.enclave

	if err := e.Touch("/f"); err != nil {
		t.Fatal(err)
	}
	if err := e.Touch("/f"); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate Touch = %v", err)
	}
	if err := e.Mkdir("/f"); !errors.Is(err, ErrExists) {
		t.Fatalf("Mkdir over file = %v", err)
	}
}

func TestRenameWithinDirectory(t *testing.T) {
	owner := newIdentity(t, "owen")
	env, _, _ := newMountedVolume(t, owner)
	e := env.enclave

	if err := e.Touch("/old"); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteFile("/old", []byte("content")); err != nil {
		t.Fatal(err)
	}
	if err := e.Rename("/old", "/new"); err != nil {
		t.Fatalf("Rename: %v", err)
	}
	if _, err := e.Lookup("/old"); !errors.Is(err, ErrNotFound) {
		t.Fatal("/old still present")
	}
	got, err := e.ReadFile("/new")
	if err != nil || string(got) != "content" {
		t.Fatalf("ReadFile(/new) = %q, %v", got, err)
	}
}

func TestRenameAcrossDirectoriesReparents(t *testing.T) {
	owner := newIdentity(t, "owen")
	env, _, _ := newMountedVolume(t, owner)
	e := env.enclave

	if err := e.Mkdir("/src"); err != nil {
		t.Fatal(err)
	}
	if err := e.Mkdir("/dst"); err != nil {
		t.Fatal(err)
	}
	if err := e.Mkdir("/src/sub"); err != nil {
		t.Fatal(err)
	}
	if err := e.Touch("/src/sub/f"); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteFile("/src/sub/f", []byte("x")); err != nil {
		t.Fatal(err)
	}

	// Move the whole subdirectory; its dirnode must be re-parented so
	// traversal (parent-UUID validation) keeps working.
	if err := e.Rename("/src/sub", "/dst/sub"); err != nil {
		t.Fatalf("Rename dir: %v", err)
	}
	got, err := e.ReadFile("/dst/sub/f")
	if err != nil || string(got) != "x" {
		t.Fatalf("read after dir move = %q, %v", got, err)
	}
	// Move a file across directories.
	if err := e.Rename("/dst/sub/f", "/src/f2"); err != nil {
		t.Fatalf("Rename file across dirs: %v", err)
	}
	if got, err := e.ReadFile("/src/f2"); err != nil || string(got) != "x" {
		t.Fatalf("read after file move = %q, %v", got, err)
	}
}

func TestRenameOverwritesFile(t *testing.T) {
	owner := newIdentity(t, "owen")
	env, _, _ := newMountedVolume(t, owner)
	e := env.enclave

	for name, content := range map[string]string{"/a": "aaa", "/b": "bbb"} {
		if err := e.Touch(name); err != nil {
			t.Fatal(err)
		}
		if err := e.WriteFile(name, []byte(content)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Rename("/a", "/b"); err != nil {
		t.Fatalf("Rename overwrite: %v", err)
	}
	got, err := e.ReadFile("/b")
	if err != nil || string(got) != "aaa" {
		t.Fatalf("ReadFile(/b) = %q, %v", got, err)
	}
	// Renaming onto a directory fails.
	if err := e.Mkdir("/dir"); err != nil {
		t.Fatal(err)
	}
	if err := e.Touch("/c"); err != nil {
		t.Fatal(err)
	}
	if err := e.Rename("/c", "/dir"); !errors.Is(err, ErrExists) {
		t.Fatalf("rename onto dir = %v", err)
	}
}

func TestSymlink(t *testing.T) {
	owner := newIdentity(t, "owen")
	env, _, _ := newMountedVolume(t, owner)
	e := env.enclave

	if err := e.Symlink("/target/path", "/link"); err != nil {
		t.Fatalf("Symlink: %v", err)
	}
	st, err := e.Lookup("/link")
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != metadata.KindSymlink || st.SymlinkTarget != "/target/path" {
		t.Fatalf("Lookup(link) = %+v", st)
	}
	if err := e.Remove("/link"); err != nil {
		t.Fatalf("Remove symlink: %v", err)
	}
	if err := e.Symlink("", "/bad"); err == nil {
		t.Fatal("empty symlink target accepted")
	}
}

func TestHardlink(t *testing.T) {
	owner := newIdentity(t, "owen")
	env, _, _ := newMountedVolume(t, owner)
	e := env.enclave

	if err := e.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := e.Touch("/f"); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteFile("/f", []byte("shared")); err != nil {
		t.Fatal(err)
	}
	if err := e.Hardlink("/f", "/d/link"); err != nil {
		t.Fatalf("Hardlink: %v", err)
	}

	st, err := e.Lookup("/f")
	if err != nil || st.Links != 2 {
		t.Fatalf("links = %+v, %v", st, err)
	}
	got, err := e.ReadFile("/d/link")
	if err != nil || string(got) != "shared" {
		t.Fatalf("read via link = %q, %v", got, err)
	}

	// Writing through one name is visible through the other.
	if err := e.WriteFile("/d/link", []byte("updated")); err != nil {
		t.Fatal(err)
	}
	got, err = e.ReadFile("/f")
	if err != nil || string(got) != "updated" {
		t.Fatalf("read original after link write = %q, %v", got, err)
	}

	// Removing one link keeps the data; removing the last frees it.
	if err := e.Remove("/f"); err != nil {
		t.Fatal(err)
	}
	got, err = e.ReadFile("/d/link")
	if err != nil || string(got) != "updated" {
		t.Fatalf("read after first unlink = %q, %v", got, err)
	}
	objectsBefore := env.store.mem.Size()
	if err := e.Remove("/d/link"); err != nil {
		t.Fatal(err)
	}
	if got := env.store.mem.Size(); got >= objectsBefore {
		t.Fatal("data object not freed after last unlink")
	}

	// Directories cannot be hardlinked.
	if err := e.Hardlink("/d", "/dlink"); !errors.Is(err, ErrNotFile) {
		t.Fatalf("dir hardlink = %v", err)
	}
}

func TestLargeDirectorySplitsBuckets(t *testing.T) {
	owner := newIdentity(t, "owen")
	env := newTestEnv(t, nil, nil)
	container := env.enclave.sgx
	encl, err := New(Config{SGX: container, Store: env.store, IAS: env.ias, BucketSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := encl.CreateVolume(owner.name, owner.pub)
	if err != nil {
		t.Fatal(err)
	}
	volID, err := encl.VolumeUUID()
	if err != nil {
		t.Fatal(err)
	}
	if err := authenticate(t, encl, owner, sealed, volID); err != nil {
		t.Fatal(err)
	}

	const n = 100 // 16 per bucket -> 7 buckets
	for i := 0; i < n; i++ {
		if err := encl.Touch(fmt.Sprintf("/file%03d", i)); err != nil {
			t.Fatalf("Touch %d: %v", i, err)
		}
	}
	entries, err := encl.Filldir("/")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != n {
		t.Fatalf("Filldir = %d entries, want %d", len(entries), n)
	}
	// Entries come back sorted.
	for i := 1; i < len(entries); i++ {
		if entries[i-1].Name >= entries[i].Name {
			t.Fatal("Filldir not sorted")
		}
	}
	// Spot-check random access.
	if _, err := encl.Lookup("/file063"); err != nil {
		t.Fatal(err)
	}
	if err := encl.Remove("/file063"); err != nil {
		t.Fatal(err)
	}
	if _, err := encl.Lookup("/file063"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Lookup after remove = %v", err)
	}
}

func TestPathValidation(t *testing.T) {
	owner := newIdentity(t, "owen")
	env, _, _ := newMountedVolume(t, owner)
	e := env.enclave

	for _, bad := range []string{"/a/../b", "/./x", "//a//b//."} {
		if err := e.Touch(bad); err == nil {
			t.Errorf("Touch(%q) accepted", bad)
		}
	}
	// Leading/trailing slashes are tolerated.
	if err := e.Mkdir("dir"); err != nil {
		t.Fatal(err)
	}
	if err := e.Touch("dir/f/"); err != nil {
		t.Fatalf("Touch(dir/f/): %v", err)
	}
	if _, err := e.Lookup("/dir/f"); err != nil {
		t.Fatal(err)
	}
}

// --- ACL enforcement ---

// twoUserEnv is a volume with an owner and a non-owner user "alice",
// with the sealed rootkey retained so tests can switch identities.
type twoUserEnv struct {
	*testEnv
	owner, alice identity
	sealed       []byte
	volID        uuid.UUID
}

func (tu *twoUserEnv) authAs(t *testing.T, id identity) {
	t.Helper()
	if err := authenticate(t, tu.enclave, id, tu.sealed, tu.volID); err != nil {
		t.Fatalf("authenticating %s: %v", id.name, err)
	}
}

// mountTwoUsers returns an env where alice (non-owner) is authenticated,
// with the owner having prepared the tree and ACLs via prepare.
func mountTwoUsers(t *testing.T, prepare func(e *Enclave)) *twoUserEnv {
	t.Helper()
	owner := newIdentity(t, "owen")
	alice := newIdentity(t, "alice")
	env, sealed, volID := newMountedVolume(t, owner)
	if _, err := env.enclave.AddUser("alice", alice.pub); err != nil {
		t.Fatal(err)
	}
	prepare(env.enclave)
	tu := &twoUserEnv{testEnv: env, owner: owner, alice: alice, sealed: sealed, volID: volID}
	tu.authAs(t, alice)
	return tu
}

func TestACLDefaultDeny(t *testing.T) {
	env := mountTwoUsers(t, func(e *Enclave) {
		if err := e.Mkdir("/private"); err != nil {
			t.Fatal(err)
		}
		if err := e.Touch("/private/f"); err != nil {
			t.Fatal(err)
		}
	})
	e := env.enclave
	// Alice has no grants anywhere: everything is denied.
	if _, err := e.Filldir("/private"); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("Filldir = %v, want ErrAccessDenied", err)
	}
	if _, err := e.ReadFile("/private/f"); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("ReadFile = %v, want ErrAccessDenied", err)
	}
	if err := e.Touch("/private/new"); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("Touch = %v, want ErrAccessDenied", err)
	}
}

func TestACLReadOnlyGrant(t *testing.T) {
	env := mountTwoUsers(t, func(e *Enclave) {
		if err := e.Mkdir("/shared"); err != nil {
			t.Fatal(err)
		}
		if err := e.Touch("/shared/doc"); err != nil {
			t.Fatal(err)
		}
		if err := e.WriteFile("/shared/doc", []byte("visible")); err != nil {
			t.Fatal(err)
		}
		// Root needs lookup for traversal; /shared gets read.
		if err := e.SetACL("/", "alice", acl.Lookup); err != nil {
			t.Fatal(err)
		}
		if err := e.SetACL("/shared", "alice", acl.ReadOnly); err != nil {
			t.Fatal(err)
		}
	})
	e := env.enclave

	got, err := e.ReadFile("/shared/doc")
	if err != nil || string(got) != "visible" {
		t.Fatalf("read with grant = %q, %v", got, err)
	}
	entries, err := e.Filldir("/shared")
	if err != nil || len(entries) != 1 {
		t.Fatalf("Filldir = %v, %v", entries, err)
	}
	// Write/insert/delete remain denied.
	if err := e.WriteFile("/shared/doc", []byte("nope")); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("write = %v", err)
	}
	if err := e.Touch("/shared/new"); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("touch = %v", err)
	}
	if err := e.Remove("/shared/doc"); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("remove = %v", err)
	}
	// ACL administration denied to non-owner without Administer.
	if err := e.SetACL("/shared", "alice", acl.All); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("SetACL = %v", err)
	}
}

func TestACLRevocationTakesEffect(t *testing.T) {
	env := mountTwoUsers(t, func(e *Enclave) {
		if err := e.Mkdir("/proj"); err != nil {
			t.Fatal(err)
		}
		if err := e.Touch("/proj/f"); err != nil {
			t.Fatal(err)
		}
		if err := e.SetACL("/", "alice", acl.Lookup); err != nil {
			t.Fatal(err)
		}
		if err := e.SetACL("/proj", "alice", acl.ReadWrite); err != nil {
			t.Fatal(err)
		}
	})
	e := env.enclave

	if err := e.WriteFile("/proj/f", []byte("alice writes")); err != nil {
		t.Fatalf("pre-revocation write: %v", err)
	}

	// Owner revokes alice from /proj — a single metadata update (§VII-E).
	env.authAs(t, env.owner)
	before := e.Stats().MetadataBytesWritten
	if err := e.SetACL("/proj", "alice", acl.None); err != nil {
		t.Fatalf("revocation: %v", err)
	}
	delta := e.Stats().MetadataBytesWritten - before
	if delta <= 0 || delta > 4096 {
		t.Fatalf("revocation re-encrypted %d bytes, want a single small metadata object", delta)
	}

	// Alice retains volume access (her key is still in the supernode)
	// but the directory denies her.
	env.authAs(t, env.alice)
	if err := e.WriteFile("/proj/f", []byte("denied")); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("post-revocation write = %v, want ErrAccessDenied", err)
	}
	if _, err := e.ReadFile("/proj/f"); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("post-revocation read = %v, want ErrAccessDenied", err)
	}
}

func TestACLAdministerDelegation(t *testing.T) {
	// A non-owner holding Administer on a directory may change its ACL.
	env := mountTwoUsers(t, func(e *Enclave) {
		if err := e.Mkdir("/team"); err != nil {
			t.Fatal(err)
		}
		if err := e.SetACL("/", "alice", acl.Lookup); err != nil {
			t.Fatal(err)
		}
		if err := e.SetACL("/team", "alice", acl.ReadWrite|acl.Administer); err != nil {
			t.Fatal(err)
		}
	})
	e := env.enclave
	// Alice grants herself nothing new but can edit the ACL.
	if err := e.SetACL("/team", "alice", acl.ReadOnly); err != nil {
		t.Fatalf("delegated SetACL: %v", err)
	}
	// Having dropped her own Administer, she can no longer edit it.
	if err := e.SetACL("/team", "alice", acl.All); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("SetACL after self-downgrade = %v", err)
	}
}

func TestGetACL(t *testing.T) {
	owner := newIdentity(t, "owen")
	alice := newIdentity(t, "alice")
	env, _, _ := newMountedVolume(t, owner)
	e := env.enclave
	if _, err := e.AddUser("alice", alice.pub); err != nil {
		t.Fatal(err)
	}
	if err := e.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := e.SetACL("/d", "alice", acl.ReadOnly); err != nil {
		t.Fatal(err)
	}
	got, err := e.GetACL("/d")
	if err != nil {
		t.Fatal(err)
	}
	if got["alice"] != acl.ReadOnly || len(got) != 1 {
		t.Fatalf("GetACL = %v", got)
	}
	// Unknown user rejected.
	if err := e.SetACL("/d", "nobody", acl.ReadOnly); !errors.Is(err, metadata.ErrUserNotFound) {
		t.Fatalf("SetACL unknown user = %v", err)
	}
}

// TestWriteReadChunkedTamperDetected drives the full enclave read/write
// path (WriteFile → store → ReadFile) over many chunks, checking a
// byte-identical round trip and that tampering with the stored data
// object surfaces ErrTampered.
func TestWriteReadChunkedTamperDetected(t *testing.T) {
	owner := newIdentity(t, "owen")
	data := make([]byte, 64<<10)
	for i := range data {
		data[i] = byte(i * 31)
	}
	store := newMemObjectStore()
	platform, err := sgx.NewPlatform(sgx.PlatformConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	container, err := platform.CreateEnclave(nexusImage)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{SGX: container, Store: store, ChunkSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := e.CreateVolume(owner.name, owner.pub)
	if err != nil {
		t.Fatal(err)
	}
	volID, err := e.VolumeUUID()
	if err != nil {
		t.Fatal(err)
	}
	if err := authenticate(t, e, owner, sealed, volID); err != nil {
		t.Fatal(err)
	}

	if err := e.Touch("/blob"); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteFile("/blob", data); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := e.ReadFile("/blob")
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}

	// Corrupt the data object (the only store object whose length is
	// the sealed size: plaintext plus one inline tag per 4 KiB chunk).
	sealedLen := len(data) + (len(data)/4096)*16
	names, err := store.mem.List("")
	if err != nil {
		t.Fatal(err)
	}
	corrupted := false
	for _, n := range names {
		blob, err := store.mem.Get(n)
		if err != nil {
			t.Fatal(err)
		}
		if len(blob) == sealedLen {
			mut := bytes.Clone(blob)
			mut[len(mut)/2] ^= 1
			if err := store.mem.Put(n, mut); err != nil {
				t.Fatal(err)
			}
			corrupted = true
		}
	}
	if !corrupted {
		t.Fatal("data object not found on store")
	}
	if _, err := e.ReadFile("/blob"); !errors.Is(err, metadata.ErrTampered) {
		t.Fatalf("tampered read = %v, want ErrTampered", err)
	}
}

// afterGetStore runs hook once a fetch has read the store and before the
// enclave sees the result — the window an unlocked reader can stall in.
type afterGetStore struct {
	*memObjectStore
	hook func(name string)
}

func (s *afterGetStore) GetVersioned(name string) ([]byte, uint64, error) {
	data, version, err := s.memObjectStore.GetVersioned(name)
	if s.hook != nil {
		s.hook(name)
	}
	return data, version, err
}

// overflowBucketName returns the store names of a directory's main
// object and of its first overflow bucket, as e's store holds them now.
func overflowBucketName(t *testing.T, e *Enclave, dir string) (dirName, bucketName string) {
	t.Helper()
	if err := e.sgx.Ecall(func() error {
		e.mu.Lock()
		defer e.mu.Unlock()
		w, err := e.walkDirLocked([]string{dir})
		if err != nil {
			return err
		}
		dirName, bucketName = objName(w.dir.UUID), objName(w.dir.Refs[1].UUID)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return dirName, bucketName
}

// TestLookupOutlivesRetiredBucket is the deterministic form of the
// TestConcurrentClientsSameDirectory flake: a peer flushes a directory
// twice between the victim's fetch of its main object and of the
// overflow bucket it names. A copy-on-write bucket survives exactly one
// later flush: the second either overwrites its slot with the bucket's
// next version (the victim reads a bucket its main object's MAC does not
// match) or, when it rewrites no bucket, deletes it (the victim finds it
// gone). Either way the walk must be retried against the newer main
// object. A bucket that stays gone must surface as an error, never read
// as an empty bucket.
func TestLookupOutlivesRetiredBucket(t *testing.T) {
	for _, tc := range []struct {
		name string
		// second is the peer's second flush; the first always rewrites
		// the overflow bucket by removing seed2 from it.
		second  func(peer *Enclave) error
		wantErr error // what the victim's first attempt sees
	}{
		{"slot overwritten", func(peer *Enclave) error { return peer.Touch("/shared/two") }, metadata.ErrBucketMACMismatch},
		{"slot deleted", func(peer *Enclave) error { return peer.Remove("/shared/seed0") }, errBucketGone},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem := newMemObjectStore()
			owner := newIdentity(t, "owen")
			// Two entries a bucket: seed0 and seed1 in bucket 0 (the main
			// object), seed2 and seed3 in the one overflow bucket.
			env := newWbEnv(t, owner, Config{Store: mem, WritebackMaxOps: 1, BucketSize: 2})
			peer := env.enclave
			if err := peer.Mkdir("/shared"); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				if err := peer.Touch(fmt.Sprintf("/shared/seed%d", i)); err != nil {
					t.Fatal(err)
				}
			}
			dirName, staleBucket := overflowBucketName(t, peer, "shared")
			staleBlob, err := mem.mem.Get(staleBucket)
			if err != nil {
				t.Fatal(err)
			}

			hooked := &afterGetStore{memObjectStore: mem}
			victim := env.freshEnclave(t, hooked)
			fired := false
			var sawTorn error
			hooked.hook = func(name string) {
				if name != dirName || fired {
					return
				}
				fired = true
				if err := peer.Remove("/shared/seed2"); err != nil {
					t.Errorf("peer's first flush: %v", err)
				}
				if err := tc.second(peer); err != nil {
					t.Errorf("peer's second flush: %v", err)
				}
				// What the victim's stale main object now leads to.
				if blob, err := mem.mem.Get(staleBucket); errors.Is(err, backend.ErrNotExist) {
					sawTorn = errBucketGone
				} else if !bytes.Equal(blob, staleBlob) {
					sawTorn = metadata.ErrBucketMACMismatch
				}
			}
			st, err := victim.Lookup("/shared/seed3")
			if !fired {
				t.Fatal("the peer never ran: the victim did not fetch /shared's main object")
			}
			if sawTorn != tc.wantErr {
				t.Fatalf("the bucket the victim's copy names is in state %v, want %v: the scenario did not happen", sawTorn, tc.wantErr)
			}
			if err != nil {
				t.Fatalf("Lookup across two peer flushes: %v", err)
			}
			if st.Name != "seed3" || st.Kind != metadata.KindFile {
				t.Fatalf("Lookup = %+v", st)
			}
			hooked.hook = nil

			_, liveBucket := overflowBucketName(t, peer, "shared")
			if err := mem.Delete(liveBucket); err != nil {
				t.Fatal(err)
			}
			reader := env.freshEnclave(t, mem)
			if _, err := reader.Lookup("/shared/seed3"); !errors.Is(err, backend.ErrNotExist) || errors.Is(err, ErrNotFound) {
				t.Fatalf("Lookup with the live bucket deleted = %v, want the store's ErrNotExist surfaced", err)
			}
			if _, err := reader.Filldir("/shared"); !errors.Is(err, backend.ErrNotExist) {
				t.Fatalf("Filldir with the live bucket deleted = %v, want the store's ErrNotExist surfaced", err)
			}
			// Bucket 0 is not behind that bucket: it came with the main
			// object.
			if st, err := reader.Lookup("/shared/seed1"); err != nil || st.Name != "seed1" {
				t.Fatalf("Lookup in bucket 0 with the overflow bucket deleted = %+v, %v", st, err)
			}
		})
	}
}
