package apps

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"strings"
	"testing"

	"nexus/internal/backend"
	"nexus/internal/enclave"
	"nexus/internal/fsapi"
	"nexus/internal/plainfs"
	"nexus/internal/sgx"
	"nexus/internal/vfs"
	"nexus/internal/workload"
)

// filesystems returns both implementations so every utility is verified
// to behave identically over NEXUS and the baseline.
func filesystems(t *testing.T) map[string]fsapi.FileSystem {
	t.Helper()
	return map[string]fsapi.FileSystem{
		"plain": plainfs.New(backend.NewMemStore()),
		"nexus": newNexusFS(t),
	}
}

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
	store := vfs.NewVersionedStore(backend.NewMemStore())
	encl, err := enclave.New(enclave.Config{SGX: container, Store: store})
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

func buildSampleTree(t *testing.T, fs fsapi.FileSystem) {
	t.Helper()
	if err := fs.MkdirAll("/proj/src/deep"); err != nil {
		t.Fatal(err)
	}
	files := map[string]string{
		"/proj/readme.md":      "hello javascript world\nplain line\n",
		"/proj/src/a.go":       "package a\n// no match here\n",
		"/proj/src/deep/b.js":  "var x = 1 // javascript\njavascript again\n",
		"/proj/src/deep/c.txt": strings.Repeat("filler\n", 100),
	}
	for p, content := range files {
		if err := fs.WriteFile(p, []byte(content)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Symlink("src/a.go", "/proj/link"); err != nil {
		t.Fatal(err)
	}
}

func TestDu(t *testing.T) {
	for name, fs := range filesystems(t) {
		t.Run(name, func(t *testing.T) {
			buildSampleTree(t, fs)
			total, err := Du(fs, "/proj")
			if err != nil {
				t.Fatalf("Du: %v", err)
			}
			want := int64(len("hello javascript world\nplain line\n") +
				len("package a\n// no match here\n") +
				len("var x = 1 // javascript\njavascript again\n") +
				len(strings.Repeat("filler\n", 100)))
			if total != want {
				t.Fatalf("Du = %d, want %d", total, want)
			}
		})
	}
}

func TestGrep(t *testing.T) {
	for name, fs := range filesystems(t) {
		t.Run(name, func(t *testing.T) {
			buildSampleTree(t, fs)
			matches, err := Grep(fs, "/proj", "javascript")
			if err != nil {
				t.Fatalf("Grep: %v", err)
			}
			// Lines containing the term: readme(1) + b.js(2).
			if matches != 3 {
				t.Fatalf("Grep = %d matches, want 3", matches)
			}
		})
	}
}

func TestCpAndMv(t *testing.T) {
	for name, fs := range filesystems(t) {
		t.Run(name, func(t *testing.T) {
			buildSampleTree(t, fs)
			if err := Cp(fs, "/proj/readme.md", "/proj/copy.md"); err != nil {
				t.Fatalf("Cp: %v", err)
			}
			a, err := fs.ReadFile("/proj/readme.md")
			if err != nil {
				t.Fatal(err)
			}
			b, err := fs.ReadFile("/proj/copy.md")
			if err != nil || !bytes.Equal(a, b) {
				t.Fatalf("copy differs: %v", err)
			}

			if err := Mv(fs, "/proj/copy.md", "/proj/moved.md"); err != nil {
				t.Fatalf("Mv: %v", err)
			}
			if ok, _ := fs.Exists("/proj/copy.md"); ok {
				t.Fatal("source survived mv")
			}
			c, err := fs.ReadFile("/proj/moved.md")
			if err != nil || !bytes.Equal(a, c) {
				t.Fatalf("moved file differs: %v", err)
			}
		})
	}
}

func TestTarRoundTrip(t *testing.T) {
	for name, fs := range filesystems(t) {
		t.Run(name, func(t *testing.T) {
			buildSampleTree(t, fs)
			var archive bytes.Buffer
			if err := TarCreate(fs, "/proj", &archive); err != nil {
				t.Fatalf("TarCreate: %v", err)
			}
			if archive.Len() == 0 {
				t.Fatal("empty archive")
			}

			// Extract into a fresh subtree of the same filesystem.
			if err := TarExtract(fs, "/restored", bytes.NewReader(archive.Bytes())); err != nil {
				t.Fatalf("TarExtract: %v", err)
			}
			for _, p := range []string{"/restored/readme.md", "/restored/src/a.go", "/restored/src/deep/b.js"} {
				orig, err := fs.ReadFile(strings.Replace(p, "/restored", "/proj", 1))
				if err != nil {
					t.Fatal(err)
				}
				got, err := fs.ReadFile(p)
				if err != nil || !bytes.Equal(got, orig) {
					t.Fatalf("extracted %s differs: %v", p, err)
				}
			}
			// The symlink survived.
			st, err := fs.Stat("/restored/link")
			if err != nil || !st.IsSymlink || st.SymlinkTarget != "src/a.go" {
				t.Fatalf("symlink = %+v, %v", st, err)
			}
		})
	}
}

func TestTarExtractAcrossFilesystems(t *testing.T) {
	// Create on plain, extract into NEXUS — the workload setup path used
	// by the Fig. 6 benchmarks.
	plain := plainfs.New(backend.NewMemStore())
	tree := workload.Generate(workload.TreeSpec{
		Name: "t", NumFiles: 30, NumDirs: 6, MaxDepth: 3,
		MinFileSize: 64, MaxFileSize: 2048, Seed: 3,
	})
	if _, err := workload.Materialize(plain, "/w", tree, 1); err != nil {
		t.Fatal(err)
	}
	var archive bytes.Buffer
	if err := TarCreate(plain, "/w", &archive); err != nil {
		t.Fatal(err)
	}

	nx := newNexusFS(t)
	if err := TarExtract(nx, "/w", bytes.NewReader(archive.Bytes())); err != nil {
		t.Fatalf("extract into nexus: %v", err)
	}
	duPlain, err := Du(plain, "/w")
	if err != nil {
		t.Fatal(err)
	}
	duNexus, err := Du(nx, "/w")
	if err != nil {
		t.Fatal(err)
	}
	if duPlain != duNexus {
		t.Fatalf("du differs across filesystems: %d vs %d", duPlain, duNexus)
	}
	grepPlain, err := Grep(plain, "/w", "javascript")
	if err != nil {
		t.Fatal(err)
	}
	grepNexus, err := Grep(nx, "/w", "javascript")
	if err != nil {
		t.Fatal(err)
	}
	if grepPlain != grepNexus {
		t.Fatalf("grep differs: %d vs %d", grepPlain, grepNexus)
	}
}
