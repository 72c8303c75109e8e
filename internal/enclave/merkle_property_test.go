// Property test: the Merkle-authenticated namespace against an in-test
// model. One full enclave stack (the configuration nexus.NewClient
// builds, over a malicious store) consumes a seeded operation stream —
// mutations, reads, cache drops and stale-replay attacks — and is
// checked against two references that share no code with it:
//
//   - a namespace model (path → kind, plus file contents) decides every
//     honest operation's accept/reject verdict and every directory
//     listing, including a final sweep through a fresh mount;
//   - for each stale-replay attack, the objects an honest cold
//     Filldir(d) fetches are recorded at the store, and the attacked
//     Filldir(d) must fail with ErrStaleMetadata exactly when one of
//     them has an older copy in the attacker's snapshot.
//
// Reproduce a failure with NEXUS_MERKLE_SEED=<seed>.
package enclave_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"nexus/internal/enclave"
	"nexus/internal/metadata"
)

// envSeed returns the seed the environment variable name sets, or 1.
func envSeed(t *testing.T, name string) int64 {
	t.Helper()
	raw := os.Getenv(name)
	if raw == "" {
		return 1
	}
	seed, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		t.Fatalf("%s=%q: %v", name, raw, err)
	}
	return seed
}

// nsModel is the reference namespace: every live path's kind, and the
// contents of every live file. Its mutators report whether a correct
// filesystem accepts the operation, and apply it only then.
type nsModel struct {
	kind map[string]metadata.EntryKind
	data map[string][]byte
}

func newNSModel() *nsModel {
	return &nsModel{
		kind: map[string]metadata.EntryKind{"/": metadata.KindDir},
		data: map[string][]byte{},
	}
}

func nsParent(path string) string {
	if i := strings.LastIndex(path, "/"); i > 0 {
		return path[:i]
	}
	return "/"
}

func (m *nsModel) create(path string, kind metadata.EntryKind) bool {
	if m.kind[nsParent(path)] != metadata.KindDir || m.kind[path] != 0 {
		return false
	}
	m.kind[path] = kind
	return true
}

func (m *nsModel) write(path string, data []byte) bool {
	if m.kind[path] != metadata.KindFile {
		return false
	}
	m.data[path] = data
	return true
}

func (m *nsModel) removeFile(path string) bool {
	if m.kind[path] != metadata.KindFile {
		return false
	}
	delete(m.kind, path)
	delete(m.data, path)
	return true
}

// list returns dir's children as name → kind.
func (m *nsModel) list(dir string) map[string]metadata.EntryKind {
	out := map[string]metadata.EntryKind{}
	for path, kind := range m.kind {
		if path != "/" && nsParent(path) == dir {
			out[path[strings.LastIndex(path, "/")+1:]] = kind
		}
	}
	return out
}

func TestPropertyMerkleVsNamespaceModel(t *testing.T) {
	seed := envSeed(t, "NEXUS_MERKLE_SEED")
	rng := rand.New(rand.NewSource(seed))

	mc := newMerkleClient(t)
	model := newNSModel()

	// verdict demands the enclave accept exactly what the model accepts.
	verdict := func(op string, want bool, err error) {
		t.Helper()
		if (err == nil) != want {
			t.Fatalf("seed %d, %s: enclave=%v, model accepts=%v", seed, op, err, want)
		}
	}
	// sameListing demands a Filldir result equal the model's listing.
	sameListing := func(op, dir string, got []enclave.Stat) {
		t.Helper()
		want := model.list(dir)
		if len(got) != len(want) {
			t.Fatalf("seed %d, %s %s: %d entries, model has %d", seed, op, dir, len(got), len(want))
		}
		for _, st := range got {
			if want[st.Name] != st.Kind {
				t.Fatalf("seed %d, %s %s: entry %q is %v, model says %v", seed, op, dir, st.Name, st.Kind, want[st.Name])
			}
		}
	}
	filldir := func(e *enclave.Enclave, op, dir string) {
		t.Helper()
		got, err := e.Filldir(dir)
		if err != nil {
			t.Fatalf("seed %d, %s %s: %v", seed, op, dir, err)
		}
		sameListing(op, dir, got)
	}

	dirs := []string{"/"}
	var files []string   // live files
	var created []string // every file ever created, removed ones included
	pick := func(set []string) string { return set[rng.Intn(len(set))] }
	join := func(dir, name string) string {
		if dir == "/" {
			return "/" + name
		}
		return dir + "/" + name
	}

	var snap storeSnapshot
	var haveSnap bool
	var staleVerdicts, cleanVerdicts int

	const ops = 250
	for i := 0; i < ops; i++ {
		switch r := rng.Intn(100); {
		case r < 15: // mkdir
			path := join(pick(dirs), fmt.Sprintf("d%d", i))
			want := model.create(path, metadata.KindDir)
			verdict("mkdir "+path, want, mc.encl.Mkdir(path))
			if want {
				dirs = append(dirs, path)
			}
		case r < 35: // touch
			path := join(pick(dirs), fmt.Sprintf("f%d", i))
			want := model.create(path, metadata.KindFile)
			verdict("touch "+path, want, mc.encl.Touch(path))
			if want {
				files = append(files, path)
				created = append(created, path)
			}
		case r < 55: // write
			if len(files) == 0 {
				continue
			}
			path := pick(files)
			data := make([]byte, rng.Intn(512))
			rng.Read(data)
			verdict("write "+path, model.write(path, data), mc.encl.SaveFile(path, data, false))
		case r < 70: // read, removed files included
			if len(created) == 0 {
				continue
			}
			path := pick(created)
			got, err := mc.encl.ReadFile(path)
			verdict("read "+path, model.kind[path] == metadata.KindFile, err)
			if err == nil && !bytes.Equal(got, model.data[path]) {
				t.Fatalf("seed %d, read %s: %d bytes differ from the model's %d", seed, path, len(got), len(model.data[path]))
			}
		case r < 80: // filldir
			filldir(mc.encl, "filldir", pick(dirs))
		case r < 88: // remove
			if len(files) == 0 {
				continue
			}
			j := rng.Intn(len(files))
			path := files[j]
			verdict("remove "+path, model.removeFile(path), mc.encl.Remove(path))
			files = append(files[:j], files[j+1:]...)
		case r < 93: // drop caches
			mc.encl.DropCaches()
		case r < 96: // snapshot (attack staging)
			snap = mc.raw.snapshot()
			haveSnap = true
		default: // stale-replay attack: serve the old snapshot, read, heal
			if !haveSnap {
				continue
			}
			for _, d := range dirs {
				// Honest cold pass: does anything Filldir(d) fetches have
				// an older copy the attacker could serve instead?
				wantStale := false
				mc.raw.setOnGet(func(name string, b []byte, v uint64) ([]byte, uint64) {
					if old, ok := snap.vers[name]; ok && old < v && !freshnessObjects[name] {
						wantStale = true
					}
					return b, v
				})
				mc.encl.DropCaches()
				filldir(mc.encl, "pre-attack filldir", d)

				mc.raw.replayStale(snap)
				mc.encl.DropCaches()
				got, err := mc.encl.Filldir(d)
				switch {
				case wantStale && !errors.Is(err, enclave.ErrStaleMetadata):
					t.Fatalf("seed %d: attacked filldir %s = %v, want ErrStaleMetadata (a fetched object has an older copy)", seed, d, err)
				case !wantStale && err != nil:
					t.Fatalf("seed %d: attacked filldir %s rejected with %v, but nothing it fetches was rolled back", seed, d, err)
				case !wantStale:
					sameListing("attacked filldir", d, got)
					cleanVerdicts++
				default:
					staleVerdicts++
				}
			}
			mc.raw.setOnGet(nil)
			mc.encl.DropCaches()
		}
	}

	t.Logf("seed %d: %d attacked listings rejected as stale, %d served intact", seed, staleVerdicts, cleanVerdicts)

	// Final sweep: a fresh mount (sealed state only) agrees with the
	// model on the whole namespace.
	e2 := mc.newEnclave(t, mc.proofs)
	if err := mc.mount(e2); err != nil {
		t.Fatalf("seed %d: remount: %v", seed, err)
	}
	for _, d := range dirs {
		filldir(e2, "final filldir", d)
	}
	for _, path := range files {
		got, err := e2.ReadFile(path)
		if err != nil || !bytes.Equal(got, model.data[path]) {
			t.Fatalf("seed %d: final read %s = %d bytes, %v; model has %d", seed, path, len(got), err, len(model.data[path]))
		}
	}
}
