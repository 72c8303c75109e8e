package fsapi_test

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	mrand "math/rand"
	"path"
	"sort"
	"testing"

	"nexus/internal/backend"
	"nexus/internal/enclave"
	"nexus/internal/fsapi"
	"nexus/internal/metadata"
	"nexus/internal/plainfs"
	"nexus/internal/sgx"
	"nexus/internal/vfs"
)

// newNexusFS builds a mounted NEXUS filesystem over store.
func newNexusFS(t *testing.T, store backend.Store) fsapi.FileSystem {
	t.Helper()
	platform, err := sgx.NewPlatform(sgx.PlatformConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	container, err := platform.CreateEnclave(sgx.Image{Name: "nexus-enclave", Version: 1, Code: []byte("t")})
	if err != nil {
		t.Fatal(err)
	}
	// Small buckets exercise splitting under the random workload.
	encl, err := enclave.New(enclave.Config{
		SGX:        container,
		Store:      vfs.NewVersionedStore(store),
		BucketSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := encl.CreateVolume("owner", pub)
	if err != nil {
		t.Fatal(err)
	}
	volID, err := encl.VolumeUUID()
	if err != nil {
		t.Fatal(err)
	}
	nonce, blob, err := encl.BeginAuth(pub, sealed, volID)
	if err != nil {
		t.Fatal(err)
	}
	msg := append(append([]byte(nil), nonce...), blob...)
	if err := encl.CompleteAuth(ed25519.Sign(priv, msg)); err != nil {
		t.Fatal(err)
	}
	return vfs.New(encl).API()
}

// TestDifferentialRandomOps drives identical random operation sequences
// through NEXUS and the plain baseline and demands identical observable
// behaviour: same success/failure outcomes, same listings, same file
// contents. This is the repository's model-based correctness check — the
// baseline is simple enough to trust as a reference model. Handles are
// opened with random flags and written, positioned, truncated, synced and
// closed among the path-level operations, so what a handle leaves on the
// store through NEXUS's SaveFile is checked against what it leaves
// through the baseline's Put. Written contents straddle
// metadata.MaxInlineSize, so NEXUS stores them in both layouts and
// rewrites them across the cap both ways.
func TestDifferentialRandomOps(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runDifferential(t, seed, 300)
		})
	}
}

func runDifferential(t *testing.T, seed int64, steps int) {
	nx := newNexusFS(t, backend.NewMemStore())
	ref := plainfs.New(backend.NewMemStore())
	rng := mrand.New(mrand.NewSource(seed))

	// A pool of paths the generator draws from, so operations collide
	// productively (duplicates, nested dirs, renames onto existing
	// files...).
	dirs := []string{"/"}
	files := []string{}
	randDir := func() string { return dirs[rng.Intn(len(dirs))] }
	randName := func() string { return fmt.Sprintf("n%02d", rng.Intn(30)) }
	// One content in four is within 256 bytes of the inline cap, on
	// either side of it.
	randContent := func() []byte {
		n := rng.Intn(200)
		if rng.Intn(4) == 0 {
			n = metadata.MaxInlineSize - 256 + rng.Intn(512)
		}
		content := make([]byte, n)
		rng.Read(content)
		return content
	}
	openFlags := []int{
		fsapi.O_RDONLY, fsapi.O_RDWR, fsapi.O_RDWR | fsapi.O_CREATE,
		fsapi.O_RDWR | fsapi.O_TRUNC, fsapi.O_RDWR | fsapi.O_APPEND,
		fsapi.O_RDWR | fsapi.O_CREATE | fsapi.O_TRUNC, fsapi.O_RDWR | fsapi.O_CREATE | fsapi.O_APPEND,
	}
	// Open handle pairs, one on each filesystem.
	type handles struct{ nx, ref fsapi.File }
	var open []handles
	randHandle := func() (handles, int) {
		i := rng.Intn(len(open))
		return open[i], i
	}
	sameN := func(step int, what string, nxN, refN int64) {
		if nxN != refN {
			t.Fatalf("step %d: %s returned %d on nexus, %d on the reference", step, what, nxN, refN)
		}
	}

	for step := 0; step < steps; step++ {
		var nxErr, refErr error
		op := rng.Intn(128)
		if op >= 105 && op < 125 && len(open) == 0 {
			op = 100 // an open, so the handle ops have a handle
		}
		switch {
		case op < 20: // mkdir
			p := path.Join(randDir(), randName())
			nxErr = nx.Mkdir(p)
			refErr = ref.Mkdir(p)
			if nxErr == nil {
				dirs = append(dirs, p)
			}
		case op < 45: // write file (create or overwrite)
			p := path.Join(randDir(), randName())
			content := randContent()
			nxErr = nx.WriteFile(p, content)
			refErr = ref.WriteFile(p, content)
			if nxErr == nil {
				files = append(files, p)
			}
		case op < 60: // read file
			p := path.Join(randDir(), randName())
			var nxData, refData []byte
			nxData, nxErr = nx.ReadFile(p)
			refData, refErr = ref.ReadFile(p)
			if nxErr == nil && refErr == nil && !bytes.Equal(nxData, refData) {
				t.Fatalf("step %d: ReadFile(%s) contents differ", step, p)
			}
		case op < 69: // remove
			p := path.Join(randDir(), randName())
			nxErr = nx.Remove(p)
			refErr = ref.Remove(p)
		case op < 72: // remove a tree
			p := randDir()
			if p == "/" {
				p = path.Join(p, randName())
			}
			nxErr = nx.RemoveAll(p)
			refErr = ref.RemoveAll(p)
		case op < 82: // rename a file
			if len(files) == 0 {
				continue
			}
			src := files[rng.Intn(len(files))]
			dst := path.Join(randDir(), randName())
			// The reference model lacks NEXUS's file-replace semantics
			// only when dst is a dir; both reject that case. Renames of
			// since-deleted sources fail on both.
			nxErr = nx.Rename(src, dst)
			refErr = ref.Rename(src, dst)
		case op < 90: // stat
			p := path.Join(randDir(), randName())
			var nxSt, refSt fsapi.DirEntry
			nxSt, nxErr = nx.Stat(p)
			refSt, refErr = ref.Stat(p)
			if nxErr == nil && refErr == nil {
				if nxSt.IsDir != refSt.IsDir || nxSt.IsSymlink != refSt.IsSymlink {
					t.Fatalf("step %d: Stat(%s) kind differs: %+v vs %+v", step, p, nxSt, refSt)
				}
				if !nxSt.IsDir && !nxSt.IsSymlink && nxSt.Size != refSt.Size {
					t.Fatalf("step %d: Stat(%s) size %d on nexus, %d on the reference", step, p, nxSt.Size, refSt.Size)
				}
			}
		case op < 100: // list a directory and compare
			d := randDir()
			nxEntries, nxE := nx.ReadDir(d)
			refEntries, refE := ref.ReadDir(d)
			nxErr, refErr = nxE, refE
			if nxErr == nil && refErr == nil {
				compareListings(t, step, d, nxEntries, refEntries)
			}
		case op < 105: // open a handle, on a written file or any name
			p := path.Join(randDir(), randName())
			if len(files) > 0 && rng.Intn(2) == 0 {
				p = files[rng.Intn(len(files))]
			}
			flags := openFlags[rng.Intn(len(openFlags))]
			var h handles
			h.nx, nxErr = nx.Open(p, flags)
			h.ref, refErr = ref.Open(p, flags)
			switch {
			case nxErr == nil && refErr == nil:
				open = append(open, h)
				files = append(files, p)
			case nxErr == nil:
				_ = h.nx.Close() // the mismatch below is what fails
			case refErr == nil:
				_ = h.ref.Close()
			}
		case op < 111: // write through a handle
			h, _ := randHandle()
			content := make([]byte, rng.Intn(100))
			rng.Read(content)
			var nxN, refN int
			nxN, nxErr = h.nx.Write(content)
			refN, refErr = h.ref.Write(content)
			sameN(step, "Write", int64(nxN), int64(refN))
		case op < 114: // seek a handle
			h, _ := randHandle()
			offset, whence := rng.Int63n(300)-100, rng.Intn(3)
			var nxPos, refPos int64
			nxPos, nxErr = h.nx.Seek(offset, whence)
			refPos, refErr = h.ref.Seek(offset, whence)
			sameN(step, "Seek", nxPos, refPos)
		case op < 117: // truncate through a handle
			h, _ := randHandle()
			size := rng.Int63n(200)
			nxErr, refErr = h.nx.Truncate(size), h.ref.Truncate(size)
			sameN(step, "Size", h.nx.Size(), h.ref.Size())
		case op < 120: // sync a handle
			h, _ := randHandle()
			nxErr, refErr = h.nx.Sync(), h.ref.Sync()
		case op >= 125: // symlink
			p, target := path.Join(randDir(), randName()), path.Join(randDir(), randName())
			nxErr = nx.Symlink(target, p)
			refErr = ref.Symlink(target, p)
		default: // close a handle
			h, i := randHandle()
			nxErr, refErr = h.nx.Close(), h.ref.Close()
			open = append(open[:i], open[i+1:]...)
		}
		if (nxErr == nil) != (refErr == nil) {
			t.Fatalf("step %d (op %d): outcome mismatch: nexus=%v reference=%v",
				step, op, nxErr, refErr)
		}
	}

	for i, h := range open {
		nxErr, refErr := h.nx.Close(), h.ref.Close()
		if (nxErr == nil) != (refErr == nil) {
			t.Fatalf("closing handle %d at the end: nexus=%v reference=%v", i, nxErr, refErr)
		}
	}
	// Final deep comparison of the entire tree.
	compareTrees(t, nx, ref, "/")
}

func compareListings(t *testing.T, step int, dir string, a, b []fsapi.DirEntry) {
	t.Helper()
	names := func(es []fsapi.DirEntry) []string {
		out := make([]string, len(es))
		for i, e := range es {
			kind := "f"
			if e.IsDir {
				kind = "d"
			} else if e.IsSymlink {
				kind = "l"
			}
			out[i] = kind + ":" + e.Name
		}
		sort.Strings(out)
		return out
	}
	na, nb := names(a), names(b)
	if len(na) != len(nb) {
		t.Fatalf("step %d: ReadDir(%s) length differs: %v vs %v", step, dir, na, nb)
	}
	for i := range na {
		if na[i] != nb[i] {
			t.Fatalf("step %d: ReadDir(%s) differs: %v vs %v", step, dir, na, nb)
		}
	}
}

func compareTrees(t *testing.T, a, b fsapi.FileSystem, root string) {
	t.Helper()
	ae, err := a.ReadDir(root)
	if err != nil {
		t.Fatalf("ReadDir(%s) on nexus: %v", root, err)
	}
	be, err := b.ReadDir(root)
	if err != nil {
		t.Fatalf("ReadDir(%s) on reference: %v", root, err)
	}
	compareListings(t, -1, root, ae, be)
	for _, e := range ae {
		child := path.Join(root, e.Name)
		switch {
		case e.IsDir:
			compareTrees(t, a, b, child)
		case !e.IsSymlink:
			da, err := a.ReadFile(child)
			if err != nil {
				t.Fatalf("ReadFile(%s) on nexus: %v", child, err)
			}
			db, err := b.ReadFile(child)
			if err != nil {
				t.Fatalf("ReadFile(%s) on reference: %v", child, err)
			}
			if !bytes.Equal(da, db) {
				t.Fatalf("contents of %s differ", child)
			}
		}
	}
}

// implementations returns each filesystem over a fresh store.
func implementations(t *testing.T) map[string]fsapi.FileSystem {
	return map[string]fsapi.FileSystem{
		"nexus":   over(t, "nexus", backend.NewMemStore()),
		"plainfs": over(t, "plainfs", backend.NewMemStore()),
	}
}

// over returns the named filesystem over store.
func over(t *testing.T, name string, store backend.Store) fsapi.FileSystem {
	if name == "nexus" {
		return newNexusFS(t, store)
	}
	return plainfs.New(store)
}

// notFound is the error each implementation wraps for a missing path.
var notFound = map[string]error{"nexus": enclave.ErrNotFound, "plainfs": plainfs.ErrNotFound}

// notDir is the error each implementation wraps for a path below a file.
var notDir = map[string]error{"nexus": enclave.ErrNotDir, "plainfs": plainfs.ErrNotDir}

// TestRenameReplacesFilesNotDirectories: a rename replaces a file or a
// symlink at its destination, leaving one entry there, and refuses a
// directory, changing nothing.
func TestRenameReplacesFilesNotDirectories(t *testing.T) {
	for name, fs := range implementations(t) {
		t.Run(name, func(t *testing.T) {
			for _, p := range []string{"/a", "/b"} {
				if err := fs.Mkdir(p); err != nil {
					t.Fatal(err)
				}
			}
			if err := fs.WriteFile("/a/x", []byte("in a")); err != nil {
				t.Fatal(err)
			}
			if err := fs.Rename("/a", "/b"); err == nil {
				t.Fatal("Rename(/a, /b) onto a directory = nil, want an error")
			}
			if got, err := fs.ReadFile("/a/x"); err != nil || string(got) != "in a" {
				t.Fatalf("ReadFile(/a/x) = %q, %v", got, err)
			}
			if entries, err := fs.ReadDir("/b"); err != nil || len(entries) != 0 {
				t.Fatalf("ReadDir(/b) = %+v, %v, want empty", entries, err)
			}
			if err := fs.Symlink("/t", "/l"); err != nil {
				t.Fatal(err)
			}
			if err := fs.WriteFile("/f", []byte("moved")); err != nil {
				t.Fatal(err)
			}
			if err := fs.Rename("/f", "/l"); err != nil {
				t.Fatalf("Rename(/f, /l) onto a symlink: %v", err)
			}
			if got, err := fs.ReadFile("/l"); err != nil || string(got) != "moved" {
				t.Fatalf("ReadFile(/l) = %q, %v", got, err)
			}
			if st, err := fs.Stat("/l"); err != nil || st.IsSymlink {
				t.Fatalf("Stat(/l) = %+v, %v, want the file", st, err)
			}
			entries, err := fs.ReadDir("/")
			if err != nil {
				t.Fatal(err)
			}
			var names []string
			for _, e := range entries {
				names = append(names, e.Name)
			}
			if fmt.Sprint(names) != "[a b l]" {
				t.Fatalf("ReadDir(/) = %v, want [a b l]", names)
			}
		})
	}
}

// TestPathBelowAFileIsNotADirectory: a path below a file is not a
// directory, for Stat, Exists and RemoveAll alike.
func TestPathBelowAFileIsNotADirectory(t *testing.T) {
	for name, fs := range implementations(t) {
		t.Run(name, func(t *testing.T) {
			if err := fs.WriteFile("/f", []byte("file")); err != nil {
				t.Fatal(err)
			}
			if _, err := fs.Stat("/f/x/y"); !errors.Is(err, notDir[name]) {
				t.Errorf("Stat(/f/x/y) = %v, want %v", err, notDir[name])
			}
			if ok, err := fs.Exists("/f/x"); ok || !errors.Is(err, notDir[name]) {
				t.Errorf("Exists(/f/x) = %v, %v, want %v", ok, err, notDir[name])
			}
			if err := fs.RemoveAll("/f/x"); !errors.Is(err, notDir[name]) {
				t.Errorf("RemoveAll(/f/x) = %v, want %v", err, notDir[name])
			}
			if _, err := fs.Stat("/g/x"); !errors.Is(err, notFound[name]) {
				t.Errorf("Stat(/g/x) = %v, want %v", err, notFound[name])
			}
		})
	}
}

// TestRenameBelowItselfRefused: moving a directory to a path below itself
// is refused (rename(2)'s EINVAL) and changes nothing; a sibling that
// only shares the name's prefix is not below it.
func TestRenameBelowItselfRefused(t *testing.T) {
	for name, fs := range implementations(t) {
		t.Run(name, func(t *testing.T) {
			if err := fs.MkdirAll("/a/b"); err != nil {
				t.Fatal(err)
			}
			if err := fs.WriteFile("/a/b/f", []byte("kept")); err != nil {
				t.Fatal(err)
			}
			for _, dst := range []string{"/a/b/c", "/a/b", "/a/x"} {
				if err := fs.Rename("/a", dst); err == nil {
					t.Errorf("Rename(/a, %s) = nil, want an error", dst)
				}
			}
			if entries, err := fs.ReadDir("/"); err != nil || len(entries) != 1 || entries[0].Name != "a" {
				t.Fatalf("ReadDir(/) = %+v, %v, want only a", entries, err)
			}
			if got, err := fs.ReadFile("/a/b/f"); err != nil || string(got) != "kept" {
				t.Fatalf("ReadFile(/a/b/f) = %q, %v", got, err)
			}
			if err := fs.Rename("/a", "/ab"); err != nil {
				t.Fatalf("Rename(/a, /ab): %v", err)
			}
			if got, err := fs.ReadFile("/ab/b/f"); err != nil || string(got) != "kept" {
				t.Fatalf("ReadFile(/ab/b/f) = %q, %v", got, err)
			}
		})
	}
}

// TestClosedHandleChangesNothing: after Close every method of a handle
// fails and the file keeps what Close left; a second Close is a no-op.
func TestClosedHandleChangesNothing(t *testing.T) {
	for name, fs := range implementations(t) {
		t.Run(name, func(t *testing.T) {
			if err := fs.WriteFile("/f", []byte("precious")); err != nil {
				t.Fatal(err)
			}
			f, err := fs.Open("/f", fsapi.O_RDWR)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 4)
			for op, call := range map[string]func() error{
				"Read":     func() error { _, err := f.Read(buf); return err },
				"ReadAt":   func() error { _, err := f.ReadAt(buf, 0); return err },
				"Write":    func() error { _, err := f.Write([]byte("xyz")); return err },
				"Seek":     func() error { _, err := f.Seek(1, io.SeekStart); return err },
				"Truncate": func() error { return f.Truncate(3) },
				"Sync":     f.Sync,
			} {
				if err := call(); err == nil {
					t.Errorf("%s on a closed handle = nil, want an error", op)
				}
			}
			if err := f.Close(); err != nil {
				t.Errorf("second Close = %v, want nil", err)
			}
			if got, err := fs.ReadFile("/f"); err != nil || string(got) != "precious" {
				t.Fatalf("ReadFile(/f) = %q, %v, want precious", got, err)
			}
		})
	}
}

// TestOpenCreateMakesTheFile: Open with O_CREATE makes a missing file at
// the open, as open(2) does, so it exists, empty, before the handle is
// written or closed; Close then writes what the handle holds.
func TestOpenCreateMakesTheFile(t *testing.T) {
	for name, fs := range implementations(t) {
		t.Run(name, func(t *testing.T) {
			f, err := fs.Open("/new", fsapi.O_RDWR|fsapi.O_CREATE)
			if err != nil {
				t.Fatal(err)
			}
			if ok, err := fs.Exists("/new"); err != nil || !ok {
				t.Fatalf("Exists(/new) between Open and Close = %v, %v, want true", ok, err)
			}
			if got, err := fs.ReadFile("/new"); err != nil || len(got) != 0 {
				t.Fatalf("ReadFile(/new) before Close = %q, %v, want empty", got, err)
			}
			if _, err := f.Write([]byte("made")); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			if got, err := fs.ReadFile("/new"); err != nil || string(got) != "made" {
				t.Fatalf("ReadFile(/new) = %q, %v, want made", got, err)
			}
		})
	}
}
