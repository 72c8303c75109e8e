package plainfs

import (
	"errors"
	"testing"

	"nexus/internal/backend"
)

func newFS(t *testing.T) *FS {
	t.Helper()
	return New(backend.NewMemStore())
}

func TestFileRoundTrip(t *testing.T) {
	fs := newFS(t)
	if err := fs.WriteFile("/a.txt", []byte("contents")); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/a.txt")
	if err != nil || string(got) != "contents" {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
	st, err := fs.Stat("/a.txt")
	if err != nil || st.IsDir || st.Size != 8 {
		t.Fatalf("Stat = %+v, %v", st, err)
	}
	if _, err := fs.ReadFile("/ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ReadFile(ghost) = %v", err)
	}
}

func TestDirectories(t *testing.T) {
	fs := newFS(t)
	if err := fs.MkdirAll("/a/b/c"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/a/b/c"); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate mkdir = %v", err)
	}
	if err := fs.Mkdir("/no/parent"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("orphan mkdir = %v", err)
	}
	if err := fs.WriteFile("/a/b/c/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/a/top", []byte("y")); err != nil {
		t.Fatal(err)
	}

	entries, err := fs.ReadDir("/a")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Name != "b" || !entries[0].IsDir || entries[1].Name != "top" {
		t.Fatalf("ReadDir(/a) = %+v", entries)
	}
	// Root listing.
	entries, err = fs.ReadDir("/")
	if err != nil || len(entries) != 1 || entries[0].Name != "a" {
		t.Fatalf("ReadDir(/) = %+v, %v", entries, err)
	}

	if err := fs.Remove("/a"); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("remove non-empty = %v", err)
	}
	if err := fs.RemoveAll("/a"); err != nil {
		t.Fatal(err)
	}
	if ok, _ := fs.Exists("/a"); ok {
		t.Fatal("/a survived RemoveAll")
	}
}

func TestRenameFileAndTree(t *testing.T) {
	fs := newFS(t)
	if err := fs.MkdirAll("/src/sub"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/src/sub/f", []byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("/src/sub/f", "/src/g"); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/src/g")
	if err != nil || string(got) != "data" {
		t.Fatalf("after file rename = %q, %v", got, err)
	}

	// Directory subtree rename.
	if err := fs.WriteFile("/src/sub/deep", []byte("d")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("/src", "/dst"); err != nil {
		t.Fatal(err)
	}
	got, err = fs.ReadFile("/dst/sub/deep")
	if err != nil || string(got) != "d" {
		t.Fatalf("after tree rename = %q, %v", got, err)
	}
	if ok, _ := fs.Exists("/src"); ok {
		t.Fatal("/src survived rename")
	}
}

func TestRenameDoesNotTouchSiblingsWithSharedPrefix(t *testing.T) {
	fs := newFS(t)
	if err := fs.MkdirAll("/ab"); err != nil {
		t.Fatal(err)
	}
	if err := fs.MkdirAll("/abc"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/abc/f", []byte("keep")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("/ab", "/xy"); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/abc/f")
	if err != nil || string(got) != "keep" {
		t.Fatalf("sibling clobbered: %q, %v", got, err)
	}
}

func TestSymlink(t *testing.T) {
	fs := newFS(t)
	if err := fs.Symlink("/target", "/ln"); err != nil {
		t.Fatal(err)
	}
	st, err := fs.Stat("/ln")
	if err != nil || !st.IsSymlink || st.SymlinkTarget != "/target" {
		t.Fatalf("Stat(ln) = %+v, %v", st, err)
	}
	if err := fs.Remove("/ln"); err != nil {
		t.Fatal(err)
	}
}

func TestSpecialCharactersInNames(t *testing.T) {
	fs := newFS(t)
	for _, name := range []string{"/with#hash", "/with%percent", "/with%23both"} {
		if err := fs.WriteFile(name, []byte(name)); err != nil {
			t.Fatalf("WriteFile(%q): %v", name, err)
		}
		got, err := fs.ReadFile(name)
		if err != nil || string(got) != name {
			t.Fatalf("ReadFile(%q) = %q, %v", name, got, err)
		}
	}
	entries, err := fs.ReadDir("/")
	if err != nil || len(entries) != 3 {
		t.Fatalf("ReadDir = %+v, %v", entries, err)
	}
	want := map[string]bool{"with#hash": true, "with%percent": true, "with%23both": true}
	for _, e := range entries {
		if !want[e.Name] {
			t.Fatalf("unexpected listing name %q", e.Name)
		}
	}
}
