// The read-ahead hints of read-only walks (DESIGN.md §11.5) over the two
// real stores a client runs on: the local adapter and an AFS client. This
// lives in the external test package so it can build both stacks.
package enclave_test

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"

	"nexus"
	"nexus/internal/afs"
	"nexus/internal/backend"
	"nexus/internal/enclave"
	"nexus/internal/metadata"
)

// aheadRecorder sits between a client's enclave and its store and
// records the reads made while an operation is in flight but before its
// first ecall: the reads an ecall stub made ahead.
type aheadRecorder struct {
	enclave.ObjectStore

	mu     sync.Mutex
	ecalls func() int64 // the client's ecall count
	armed  bool
	before int64 // ecall count when the operation began
	ahead  []string
	all    []string
}

func (r *aheadRecorder) GetVersioned(name string) ([]byte, uint64, error) {
	r.mu.Lock()
	if r.armed {
		r.all = append(r.all, name)
		if r.ecalls() == r.before {
			r.ahead = append(r.ahead, name)
		}
	}
	r.mu.Unlock()
	return r.ObjectStore.GetVersioned(name)
}

// measure runs op and returns the reads made ahead of its ecall and all
// the reads it made.
func (r *aheadRecorder) measure(op func()) (ahead, all []string) {
	r.mu.Lock()
	r.armed, r.before, r.ahead, r.all = true, r.ecalls(), nil, nil
	r.mu.Unlock()
	op()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.armed = false
	return r.ahead, r.all
}

// TestWalkPrefetchHintsNeverOverread: over the local adapter and over an
// AFS client, a seeded single-client stream mixes Stat, ReadFile and
// ReadDir with creates, overwrites (inline and chunked), renames, removes,
// ACL changes and a switch between two users. After every call no read
// made ahead was discarded, and every read made before an ecall is one
// the walk took: each was used from the stash, and none was read again.
func TestWalkPrefetchHintsNeverOverread(t *testing.T) {
	for _, arm := range []string{"local", "afs"} {
		t.Run(arm, func(t *testing.T) {
			var store enclave.ObjectStore
			if arm == "local" {
				store = nexus.NewMemoryStore()
			} else {
				srv := afs.NewServer(backend.NewMemStore())
				l, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				go func() { _ = srv.Serve(l) }()
				t.Cleanup(func() { _ = srv.Close() })
				c, err := afs.Dial(l.Addr().String(), afs.ClientConfig{})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { _ = c.Close() })
				store = c
			}
			runHintStream(t, store, envSeed(t, "NEXUS_CHAOS_SEED"))
		})
	}
}

func runHintStream(t *testing.T, store enclave.ObjectStore, seed int64) {
	rec := &aheadRecorder{ObjectStore: store}
	ias, err := nexus.NewAttestationService()
	if err != nil {
		t.Fatal(err)
	}
	client, err := nexus.NewClient(nexus.ClientConfig{Store: rec, IAS: ias, ChunkSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	reg := client.Obs()
	rec.ecalls = func() int64 { return reg.CounterValue("sgx_ecalls_total") }
	owner, err := nexus.NewIdentity("owen")
	if err != nil {
		t.Fatal(err)
	}
	alice, err := nexus.NewIdentity("alice")
	if err != nil {
		t.Fatal(err)
	}
	vol, sealed, err := client.CreateVolume(owner)
	if err != nil {
		t.Fatal(err)
	}
	if err := vol.AddUser("alice", alice.PublicKey); err != nil {
		t.Fatal(err)
	}
	dirs := []string{"/a", "/b", "/b/c"}
	for _, dir := range dirs {
		if err := vol.FS().Mkdir(dir); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	file := func() string { return fmt.Sprintf("%s/f%d", dirs[rng.Intn(len(dirs))], rng.Intn(3)) }
	content := func(i int) []byte {
		n := 100
		if rng.Intn(3) == 0 {
			n = metadata.MaxInlineSize + 1 // a data object of 16 chunks
		}
		return []byte(fmt.Sprintf("%0*d", n, i))
	}
	asOwner := true
	var aheadReads, hinted int
	var what string
	var walk func()
	for i := 0; i < 400; i++ {
		fs := vol.FS()
		switch k := rng.Intn(24); {
		case k < 4 && walk != nil: // the last walk again
		case k < 5:
			p := file()
			what, walk = "Stat "+p, func() { _, _ = fs.Stat(p) }
		case k < 10:
			p := file()
			what, walk = "ReadFile "+p, func() { _, _ = fs.ReadFile(p) }
		case k < 13:
			p := dirs[rng.Intn(len(dirs))]
			what, walk = "ReadDir "+p, func() { _, _ = fs.ReadDir(p) }
		case k < 15:
			walk = nil
			_ = fs.WriteFile(file(), content(i))
		case k < 16:
			walk = nil
			_ = fs.Rename(file(), file())
		case k < 17:
			walk = nil
			_ = fs.Remove(file())
		case k < 19:
			walk = nil
			rights := []nexus.Rights{nexus.NoRights, nexus.Lookup, nexus.ReadOnly, nexus.AllRights}[rng.Intn(4)]
			_ = vol.SetACL(dirs[rng.Intn(len(dirs))], "alice", rights)
		default:
			walk = nil
			id := alice
			if !asOwner {
				id = owner
			}
			if vol, err = client.Mount(id, sealed, vol.ID()); err != nil {
				t.Fatalf("op %d: mounting as %s: %v", i, id.Name, err)
			}
			asOwner = !asOwner
		}
		if walk == nil {
			continue
		}
		used := reg.CounterValue("enclave_walk_prefetch_used_total")
		discarded := reg.CounterValue("enclave_walk_prefetch_discarded_total")
		ahead, all := rec.measure(walk)
		if d := reg.CounterValue("enclave_walk_prefetch_discarded_total") - discarded; d != 0 {
			t.Errorf("op %d, %s: %d reads made ahead were discarded", i, what, d)
		}
		if u := reg.CounterValue("enclave_walk_prefetch_used_total") - used; u < int64(len(ahead)) {
			t.Errorf("op %d, %s: %d reads made before the ecall, %d used", i, what, len(ahead), u)
		}
		reads := make(map[string]int)
		for _, name := range all {
			reads[name]++
		}
		for _, name := range ahead {
			if n := reads[name]; n != 1 {
				t.Errorf("op %d, %s: %s, read before the ecall, was read %d times", i, what, name, n)
			}
		}
		aheadReads += len(ahead)
		if len(ahead) > 0 {
			hinted++
		}
	}
	if hinted == 0 {
		t.Fatal("no walk made its reads before its ecall: the stream proves nothing")
	}
	t.Logf("%d walks made %d reads before their ecall", hinted, aheadReads)
}
