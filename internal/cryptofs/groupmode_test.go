package cryptofs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"nexus/internal/backend"
	"nexus/internal/groupkey"
)

// groupSetup builds a group-mode filesystem with n users named u0..u(n-1)
// plus the owner.
func groupSetup(t *testing.T, n int) (*FS, *User, []*User, *backend.MemStore) {
	t.Helper()
	owner, err := NewUser("owen")
	if err != nil {
		t.Fatal(err)
	}
	store := backend.NewMemStore()
	fs := New(store, owner)
	users := make([]*User, n)
	for i := range users {
		u, err := NewUser(fmt.Sprintf("u%d", i))
		if err != nil {
			t.Fatal(err)
		}
		users[i] = u
		fs.AddUser(u)
	}
	if err := fs.SetGroupKeys(true); err != nil {
		t.Fatal(err)
	}
	return fs, owner, users, store
}

func TestGroupModeWriteReadRoundTrip(t *testing.T) {
	fs, owner, users, store := groupSetup(t, 4)
	data := []byte("group-wrapped document")
	readers := []string{"u0", "u1"}
	if err := fs.WriteFile("/doc", data, readers); err != nil {
		t.Fatal(err)
	}
	for _, u := range []*User{owner, users[0], users[1]} {
		got, err := fs.ReadFile("/doc", u)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s read = %q, %v", u.Name, got, err)
		}
	}
	// Members outside the reader list are still denied.
	if _, err := fs.ReadFile("/doc", users[3]); !errors.Is(err, ErrNoAccess) {
		t.Fatalf("u3 read = %v, want ErrNoAccess", err)
	}
	// The pseudo-entry never leaks through Readers.
	names, err := fs.Readers("/doc")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if n == groupReader {
			t.Fatal("Readers leaked the @group pseudo-entry")
		}
	}
	// Nothing on the store holds plaintext.
	objs, err := store.List("")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range objs {
		blob, err := store.Get(n)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(blob, data) {
			t.Fatalf("object %s contains plaintext", n)
		}
	}
}

func TestGroupModeSingleWrapPerFile(t *testing.T) {
	fs, _, _, _ := groupSetup(t, 16)
	fs.ResetStats()
	readers := make([]string, 16)
	for i := range readers {
		readers[i] = fmt.Sprintf("u%d", i)
	}
	for i := 0; i < 5; i++ {
		if err := fs.WriteFile(fmt.Sprintf("/f%d", i), []byte("x"), readers); err != nil {
			t.Fatal(err)
		}
	}
	// 5 files × 1 wrap, regardless of the 17-strong reader set.
	if got := fs.Stats().KeyWraps; got != 5 {
		t.Fatalf("KeyWraps = %d, want 5 (one per file)", got)
	}
}

func TestGroupModeRevokeBeatsFlatWraps(t *testing.T) {
	const nUsers, nFiles = 24, 12
	everyone := make([]string, nUsers)
	for i := range everyone {
		everyone[i] = fmt.Sprintf("u%d", i)
	}
	paths := make([]string, nFiles)
	for i := range paths {
		paths[i] = fmt.Sprintf("/f%d", i)
	}

	// Group-mode filesystem.
	gfs, _, _, _ := groupSetup(t, nUsers)
	for _, p := range paths {
		if err := gfs.WriteFile(p, []byte("shared "+p), everyone); err != nil {
			t.Fatal(err)
		}
	}
	gfs.ResetStats()
	gst, err := gfs.Revoke("u7", paths)
	if err != nil {
		t.Fatal(err)
	}

	// Flat baseline: same membership, same files, same revocation.
	fowner, err := NewUser("owen")
	if err != nil {
		t.Fatal(err)
	}
	ffs := New(backend.NewMemStore(), fowner)
	for i := 0; i < nUsers; i++ {
		u, err := NewUser(fmt.Sprintf("u%d", i))
		if err != nil {
			t.Fatal(err)
		}
		ffs.AddUser(u)
	}
	for _, p := range paths {
		if err := ffs.WriteFile(p, []byte("shared "+p), everyone); err != nil {
			t.Fatal(err)
		}
	}
	ffs.ResetStats()
	fst, err := ffs.Revoke("u7", paths)
	if err != nil {
		t.Fatal(err)
	}

	// Flat pays wrap-per-remaining-reader on every file; group pays one
	// path rotation plus one wrap per file.
	rotationBound := int64(groupkey.DefaultLeafCap + groupkey.DefaultFanout*4)
	if gst.KeyWraps > int64(nFiles)+rotationBound {
		t.Fatalf("group KeyWraps = %d, want ≤ files(%d) + rotation(%d)", gst.KeyWraps, nFiles, rotationBound)
	}
	if fst.KeyWraps != int64(nFiles*nUsers) { // owner + 24 users - revoked = 24 per file
		t.Fatalf("flat KeyWraps = %d, want %d", fst.KeyWraps, nFiles*nUsers)
	}
	if gst.KeyWraps >= fst.KeyWraps {
		t.Fatalf("group wraps (%d) not below flat wraps (%d)", gst.KeyWraps, fst.KeyWraps)
	}
	// Both schemes still pay full content re-encryption.
	if gst.FilesTouched != int64(nFiles) || fst.FilesTouched != int64(nFiles) {
		t.Fatalf("FilesTouched group=%d flat=%d, want %d", gst.FilesTouched, fst.FilesTouched, nFiles)
	}
}

func TestGroupModeRevokeDeniesEvictedUser(t *testing.T) {
	fs, owner, users, _ := groupSetup(t, 4)
	everyone := []string{"u0", "u1", "u2", "u3"}
	if err := fs.WriteFile("/a", []byte("alpha"), everyone); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/b", []byte("beta"), everyone); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Revoke("u2", []string{"/a", "/b"}); err != nil {
		t.Fatal(err)
	}
	// Evicted from the tree: every read fails, both swept and unswept.
	for _, p := range []string{"/a", "/b"} {
		if _, err := fs.ReadFile(p, users[2]); !errors.Is(err, ErrNoAccess) {
			t.Fatalf("evicted read of %s = %v, want ErrNoAccess", p, err)
		}
	}
	// Survivors read the re-encrypted content.
	for _, u := range []*User{owner, users[0], users[3]} {
		got, err := fs.ReadFile("/a", u)
		if err != nil || string(got) != "alpha" {
			t.Fatalf("%s post-revoke read = %q, %v", u.Name, got, err)
		}
	}
}

func TestGroupModeOldEpochLazyRead(t *testing.T) {
	fs, _, users, _ := groupSetup(t, 4)
	everyone := []string{"u0", "u1", "u2", "u3"}
	if err := fs.WriteFile("/old", []byte("written at epoch k"), everyone); err != nil {
		t.Fatal(err)
	}
	// Revoke u3 but only sweep a different file: /old keeps its
	// old-epoch wrap and must stay readable by surviving members.
	if err := fs.WriteFile("/swept", []byte("x"), everyone); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Revoke("u3", []string{"/swept"}); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/old", users[0])
	if err != nil || string(got) != "written at epoch k" {
		t.Fatalf("old-epoch read = %q, %v", got, err)
	}
	// The evicted member is refused even on the unswept old-epoch file.
	if _, err := fs.ReadFile("/old", users[3]); !errors.Is(err, ErrNoAccess) {
		t.Fatalf("evicted old-epoch read = %v, want ErrNoAccess", err)
	}
}

func TestGroupModeLateJoinerReadsNewWrites(t *testing.T) {
	fs, _, _, _ := groupSetup(t, 2)
	late, err := NewUser("late")
	if err != nil {
		t.Fatal(err)
	}
	fs.AddUser(late) // enrolls into the tree, rotates the root
	if err := fs.WriteFile("/post", []byte("hello late"), []string{"late"}); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/post", late)
	if err != nil || string(got) != "hello late" {
		t.Fatalf("late read = %q, %v", got, err)
	}
}

func TestGroupModeSweepConvertsFlatFiles(t *testing.T) {
	// A file written before the mode flips is caught by the sweep and
	// comes out group-wrapped: later revocations of it cost one wrap.
	owner, err := NewUser("owen")
	if err != nil {
		t.Fatal(err)
	}
	fs := New(backend.NewMemStore(), owner)
	var users []*User
	for i := 0; i < 3; i++ {
		u, err := NewUser(fmt.Sprintf("u%d", i))
		if err != nil {
			t.Fatal(err)
		}
		users = append(users, u)
		fs.AddUser(u)
	}
	if err := fs.WriteFile("/legacy", []byte("pairwise era"), []string{"u0", "u1", "u2"}); err != nil {
		t.Fatal(err)
	}
	if err := fs.SetGroupKeys(true); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Revoke("u2", []string{"/legacy"}); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/legacy", users[0])
	if err != nil || string(got) != "pairwise era" {
		t.Fatalf("converted read = %q, %v", got, err)
	}
	if _, err := fs.ReadFile("/legacy", users[2]); !errors.Is(err, ErrNoAccess) {
		t.Fatalf("revoked read = %v, want ErrNoAccess", err)
	}
	fs.ResetStats()
	if _, err := fs.Revoke("u1", []string{"/legacy"}); err != nil {
		t.Fatal(err)
	}
	// Post-conversion revocation: rotation + exactly one file wrap.
	rotationBound := int64(groupkey.DefaultLeafCap + groupkey.DefaultFanout*4)
	if st := fs.Stats(); st.KeyWraps < 1 || st.KeyWraps > 1+rotationBound {
		t.Fatalf("post-conversion KeyWraps = %d, want 1..%d", st.KeyWraps, 1+rotationBound)
	}
}
