package fsapi_test

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"fmt"
	"io"
	mrand "math/rand"
	"path"
	"sort"
	"testing"

	"nexus/internal/backend"
	"nexus/internal/enclave"
	"nexus/internal/fsapi"
	"nexus/internal/plainfs"
	"nexus/internal/sgx"
	"nexus/internal/vfs"
)

// newNexusFS builds a mounted NEXUS filesystem.
func newNexusFS(t *testing.T) fsapi.FileSystem {
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
		Store:      vfs.NewVersionedStore(backend.NewMemStore()),
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
	return fsapi.Nexus(vfs.New(encl))
}

// TestDifferentialRandomOps drives identical random operation sequences
// through NEXUS and the plain baseline and demands identical observable
// behaviour: same success/failure outcomes, same listings, same file
// contents. This is the repository's model-based correctness check — the
// baseline is simple enough to trust as a reference model.
func TestDifferentialRandomOps(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runDifferential(t, seed, 300)
		})
	}
}

func runDifferential(t *testing.T, seed int64, steps int) {
	nx := newNexusFS(t)
	ref := plainfs.New(backend.NewMemStore())
	rng := mrand.New(mrand.NewSource(seed))

	// A pool of paths the generator draws from, so operations collide
	// productively (duplicates, nested dirs, renames onto existing
	// files...).
	dirs := []string{"/"}
	files := []string{}
	randDir := func() string { return dirs[rng.Intn(len(dirs))] }
	randName := func() string { return fmt.Sprintf("n%02d", rng.Intn(30)) }

	for step := 0; step < steps; step++ {
		var nxErr, refErr error
		op := rng.Intn(100)
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
			content := make([]byte, rng.Intn(200))
			rng.Read(content)
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
		case op < 72: // remove
			p := path.Join(randDir(), randName())
			nxErr = nx.Remove(p)
			refErr = ref.Remove(p)
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
			}
		default: // list a directory and compare
			d := randDir()
			nxEntries, nxE := nx.ReadDir(d)
			refEntries, refE := ref.ReadDir(d)
			nxErr, refErr = nxE, refE
			if nxErr == nil && refErr == nil {
				compareListings(t, step, d, nxEntries, refEntries)
			}
		}
		if (nxErr == nil) != (refErr == nil) {
			t.Fatalf("step %d (op %d): outcome mismatch: nexus=%v reference=%v",
				step, op, nxErr, refErr)
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
		"nexus":   newNexusFS(t),
		"plainfs": plainfs.New(backend.NewMemStore()),
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
