package enclave

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"testing"

	"nexus/internal/backend"
	"nexus/internal/metadata"
	"nexus/internal/obs"
	"nexus/internal/sgx"
	"nexus/internal/uuid"
)

// faultObjectStore wraps the memory store and, once armed, fails every
// ocall at or past a chosen index with the backend's unavailability
// error — a deterministic stand-in for the store dying mid-batch.
type faultObjectStore struct {
	inner *memObjectStore

	mu        sync.Mutex
	calls     int
	failAfter int // -1 = disarmed
}

func newFaultObjectStore() *faultObjectStore {
	return &faultObjectStore{inner: newMemObjectStore(), failAfter: -1}
}

// armAt makes the k-th ocall from now (0-based) and everything after it
// fail until disarm.
func (s *faultObjectStore) armAt(k int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failAfter = s.calls + k
}

func (s *faultObjectStore) disarm() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failAfter = -1
}

func (s *faultObjectStore) tick() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failAfter >= 0 && s.calls >= s.failAfter {
		return backend.ErrUnavailable
	}
	s.calls++
	return nil
}

func (s *faultObjectStore) GetVersioned(name string) ([]byte, uint64, error) {
	if err := s.tick(); err != nil {
		return nil, 0, err
	}
	return s.inner.GetVersioned(name)
}

func (s *faultObjectStore) PutVersioned(name string, data []byte) (uint64, error) {
	if err := s.tick(); err != nil {
		return 0, err
	}
	return s.inner.PutVersioned(name, data)
}

func (s *faultObjectStore) Delete(name string) error {
	if err := s.tick(); err != nil {
		return err
	}
	return s.inner.Delete(name)
}

func (s *faultObjectStore) Lock(name string) (func(), error) {
	if err := s.tick(); err != nil {
		return nil, err
	}
	return s.inner.Lock(name)
}

// wbEnv is a mounted volume with direct access to the platform, so
// tests can attach additional enclaves to the same machine (same
// sealing key) and the same store.
type wbEnv struct {
	platform *sgx.Platform
	enclave  *Enclave
	cfg      Config
	owner    identity
	sealed   []byte
	volID    uuid.UUID
}

// newWbEnv creates a volume on a fresh platform with the given config
// overrides (SGX and Store are filled in; Store defaults to a fresh
// memObjectStore when cfg.Store is nil).
func newWbEnv(t *testing.T, owner identity, cfg Config) *wbEnv {
	t.Helper()
	platform, err := sgx.NewPlatform(sgx.PlatformConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	container, err := platform.CreateEnclave(nexusImage)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SGX = container
	if cfg.Store == nil {
		cfg.Store = newMemObjectStore()
	}
	encl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := encl.CreateVolume(owner.name, owner.pub)
	if err != nil {
		t.Fatalf("CreateVolume: %v", err)
	}
	volID, err := encl.VolumeUUID()
	if err != nil {
		t.Fatal(err)
	}
	if err := authenticate(t, encl, owner, sealed, volID); err != nil {
		t.Fatalf("authenticate: %v", err)
	}
	return &wbEnv{platform: platform, enclave: encl, cfg: cfg, owner: owner, sealed: sealed, volID: volID}
}

// freshEnclave mounts a second enclave on the same platform over the
// given store — the "crash and restart" view (or a concurrent client):
// nothing carried over in memory, everything read back from the store.
func (env *wbEnv) freshEnclave(t *testing.T, store ObjectStore) *Enclave {
	t.Helper()
	container, err := env.platform.CreateEnclave(nexusImage)
	if err != nil {
		t.Fatal(err)
	}
	cfg := env.cfg
	cfg.SGX = container
	cfg.Store = store
	encl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := authenticate(t, encl, env.owner, env.sealed, env.volID); err != nil {
		t.Fatalf("fresh enclave authenticate: %v", err)
	}
	return encl
}

// wbChaosSeed mirrors the AFS chaos suite's NEXUS_CHAOS_SEED override
// so CI can run the same fixed seed matrix over this package.
func wbChaosSeed(t *testing.T) int64 {
	t.Helper()
	env := os.Getenv("NEXUS_CHAOS_SEED")
	if env == "" {
		return 1
	}
	seed, err := strconv.ParseInt(env, 10, 64)
	if err != nil {
		t.Fatalf("NEXUS_CHAOS_SEED=%q: %v", env, err)
	}
	return seed
}

// dirNames lists a directory of a (possibly fresh) enclave as a set.
func dirNames(t *testing.T, e *Enclave, path string) map[string]bool {
	t.Helper()
	stats, err := e.Filldir(path)
	if err != nil {
		t.Fatalf("Filldir(%s): %v", path, err)
	}
	names := make(map[string]bool, len(stats))
	for _, s := range stats {
		names[s.Name] = true
	}
	return names
}

// TestWritebackFlushBatchFaultSweep is the crash-consistency regression
// for the transactional flushDirnodeLocked and the batch drain: a
// multi-bucket flush is killed at every single ocall index in turn, and
// after each kill (a) a fresh enclave over the surviving store mounts
// and lists an entirely-old or entirely-new directory with no integrity
// error, and (b) clearing the fault and retrying the same drain
// converges the store and the writer's memory. The swept flush is, in
// turn, a directory's first (its overflow buckets are new objects), its
// second (each on-store overflow bucket is rewritten under a fresh name)
// and its third (each is rewritten over the slot the second retired);
// past the first, bucket 0 — inside the main object — changes too.
func TestWritebackFlushBatchFaultSweep(t *testing.T) {
	const files = 12
	// Bucket size 4: f00-f03 in bucket 0, f04-f07 and f08-f11 in the two
	// overflow buckets; each round of removals dirties both of those.
	rounds := [][]string{{"/f05", "/f09"}, {"/f06", "/f10"}}
	for prior := 0; prior <= len(rounds); prior++ {
		for k := 0; ; k++ {
			store := newFaultObjectStore()
			owner := newIdentity(t, "owen")
			env := newWbEnv(t, owner, Config{Store: store, BucketSize: 4})
			e := env.enclave
			do := func(op func(string) error, paths ...string) {
				t.Helper()
				for _, p := range paths {
					if err := op(p); err != nil {
						t.Fatalf("prior=%d k=%d: %s: %v", prior, k, p, err)
					}
				}
			}
			sync := func() {
				t.Helper()
				if err := e.SyncMetadata(); err != nil {
					t.Fatalf("prior=%d k=%d: SyncMetadata: %v", prior, k, err)
				}
			}
			// old and want count the directory before and after the swept
			// batch; it adds marker and, past the first flush, removes f00.
			old, want, marker := 0, files, "f00"
			for i := 0; i < files; i++ {
				do(e.Touch, fmt.Sprintf("/f%02d", i))
			}
			if prior > 0 {
				sync()
				for _, round := range rounds[:prior-1] {
					do(e.Remove, round...)
					sync()
				}
				old = files - 2*(prior-1)
				want, marker = old-1, "g00"
				do(e.Remove, "/f00")
				do(e.Remove, rounds[prior-1]...)
				do(e.Touch, "/g00", "/g01")
			}
			if got := len(dirNames(t, e, "/")); got != want {
				t.Fatalf("prior=%d k=%d: writer sees %d entries before drain, want %d", prior, k, got, want)
			}

			store.armAt(k)
			err := e.SyncMetadata()
			if err == nil {
				// k is past the drain's last ocall: the batch completed and
				// the sweep has covered every index.
				store.disarm()
				fresh := env.freshEnclave(t, store)
				if got := dirNames(t, fresh, "/"); len(got) != want {
					t.Fatalf("prior=%d k=%d: complete drain lost entries: %d of %d", prior, k, len(got), want)
				}
				if k == 0 {
					t.Fatal("fault at ocall 0 did not fail the drain")
				}
				break
			}
			if !errors.Is(err, ErrStoreUnavailable) {
				t.Fatalf("prior=%d k=%d: drain failed with %v, want ErrStoreUnavailable", prior, k, err)
			}

			// Crash view: a restarted enclave over whatever the store holds
			// must mount and list cleanly — the directory as the last
			// completed drain left it, or as this one would have.
			store.disarm()
			fresh := env.freshEnclave(t, store)
			names := dirNames(t, fresh, "/")
			if len(names) != old && len(names) != want {
				t.Fatalf("prior=%d k=%d: torn directory after mid-batch fault: %d entries, want %d or %d", prior, k, len(names), old, want)
			}
			if isNew := len(names) == want; names[marker] != isNew || (prior > 0 && names["f00"] == isNew) {
				t.Fatalf("prior=%d k=%d: directory mixes the old and the new state: %v", prior, k, names)
			}

			// Retry view: the same writer drains again and everything lands.
			if err := e.SyncMetadata(); err != nil {
				t.Fatalf("prior=%d k=%d: retried drain: %v", prior, k, err)
			}
			fresh2 := env.freshEnclave(t, store)
			if got := dirNames(t, fresh2, "/"); len(got) != want {
				t.Fatalf("prior=%d k=%d: retried drain converged to %d of %d entries", prior, k, len(got), want)
			}
			if got := dirNames(t, e, "/"); len(got) != want {
				t.Fatalf("prior=%d k=%d: writer's view diverged after retry: %d entries", prior, k, len(got))
			}
			if k > 500 {
				t.Fatal("fault sweep did not terminate")
			}
		}
	}
}

// TestChaosWritebackKillMidFlush kills the store at a seeded random
// ocall during a write-back drain of a mixed create workload, restarts
// (fresh enclave, surviving store), and asserts the tree is readable
// and untorn; then the writer retries and both views converge.
func TestChaosWritebackKillMidFlush(t *testing.T) {
	rng := rand.New(rand.NewSource(wbChaosSeed(t)))
	for round := 0; round < 5; round++ {
		store := newFaultObjectStore()
		owner := newIdentity(t, "owen")
		env := newWbEnv(t, owner, Config{Store: store, BucketSize: 8})
		e := env.enclave

		files := 4 + rng.Intn(12)
		if err := e.Mkdir("/d"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < files; i++ {
			p := fmt.Sprintf("/d/f%02d", i)
			if err := e.Touch(p); err != nil {
				t.Fatal(err)
			}
			if err := e.WriteFile(p, []byte(fmt.Sprintf("round %d file %d", round, i))); err != nil {
				t.Fatal(err)
			}
		}

		store.armAt(rng.Intn(20))
		err := e.SyncMetadata()
		store.disarm()

		// Crash-and-restart view: must mount, and every directory it
		// lists must resolve (no dangling entries, no integrity errors).
		fresh := env.freshEnclave(t, store)
		root := dirNames(t, fresh, "/")
		if root["d"] {
			names := dirNames(t, fresh, "/d")
			if len(names) != 0 && len(names) != files {
				t.Fatalf("round %d: torn /d after kill: %d of %d", round, len(names), files)
			}
			for name := range names {
				if _, err := fresh.ReadFile("/d/" + name); err != nil {
					t.Fatalf("round %d: reading %s after kill: %v", round, name, err)
				}
			}
		}

		// The fault may have landed after the drain finished; either way
		// a retry must converge.
		if err != nil {
			if !errors.Is(err, ErrStoreUnavailable) {
				t.Fatalf("round %d: drain failed with %v", round, err)
			}
			if err := e.SyncMetadata(); err != nil {
				t.Fatalf("round %d: retried drain: %v", round, err)
			}
		}
		fresh2 := env.freshEnclave(t, store)
		if got := dirNames(t, fresh2, "/d"); len(got) != files {
			t.Fatalf("round %d: converged to %d of %d entries", round, len(got), files)
		}
		for i := 0; i < files; i++ {
			p := fmt.Sprintf("/d/f%02d", i)
			want := fmt.Sprintf("round %d file %d", round, i)
			got, err := fresh2.ReadFile(p)
			if err != nil {
				t.Fatalf("round %d: %s: %v", round, p, err)
			}
			if string(got) != want {
				t.Fatalf("round %d: %s = %q, want %q", round, p, got, want)
			}
		}
	}
}

// treeEntry is one node of a logical volume snapshot.
type treeEntry struct {
	kind    string
	content string
}

// snapshotTree walks an enclave's volume from the root and returns the
// logical tree: every path with its kind and (for files) content.
func snapshotTree(t *testing.T, e *Enclave, dir string) map[string]treeEntry {
	t.Helper()
	out := make(map[string]treeEntry)
	var walk func(p string)
	walk = func(p string) {
		stats, err := e.Filldir(p)
		if err != nil {
			t.Fatalf("Filldir(%s): %v", p, err)
		}
		for _, s := range stats {
			child := p + "/" + s.Name
			if p == "/" {
				child = "/" + s.Name
			}
			switch {
			case s.Kind == metadata.KindDir:
				out[child] = treeEntry{kind: "dir"}
				walk(child)
			case s.Kind == metadata.KindSymlink:
				out[child] = treeEntry{kind: "symlink", content: s.SymlinkTarget}
			default:
				data, err := e.ReadFile(child)
				if err != nil {
					t.Fatalf("ReadFile(%s): %v", child, err)
				}
				out[child] = treeEntry{kind: "file", content: string(data)}
			}
		}
	}
	walk(dir)
	return out
}

// TestPropertyDrainLimitInvariant drives one seeded op stream through
// enclaves whose dirty sets drain after every mutation (limit 1), every
// few (7), and at the production default (64), and asserts that after a
// quiescing SyncMetadata a fresh enclave over each store sees exactly
// the namespace the stream itself implies — paths, kinds and last
// contents computed from the ops alone, so no run is another's oracle.
// File sizes straddle the inline cap (metadata.MaxInlineSize), and half
// the rewrites cross it, so files move into and out of their filenodes
// inside and across drain windows.
func TestPropertyDrainLimitInvariant(t *testing.T) {
	type op struct {
		kind    byte // 'd' mkdir, 'c' create+write, 'w' rewrite, 'r' remove
		path    string
		content string
	}
	rng := rand.New(rand.NewSource(wbChaosSeed(t)))
	inline := []int{0, 16, metadata.MaxInlineSize}
	chunked := []int{metadata.MaxInlineSize + 1, 64 << 10}
	all := append(append([]int{}, inline...), chunked...)
	content := func(tag string, sizes []int) string {
		n := sizes[rng.Intn(len(sizes))]
		if n == 0 {
			return ""
		}
		return string(sized(tag, max(len(tag), n)))
	}
	model := make(map[string]treeEntry)
	var ops []op
	dirs := []string{""}
	var files []string
	var inward, outward int // rewrites across the cap, each way
	for i := 0; i < 80; i++ {
		switch r := rng.Intn(10); {
		case r < 2:
			d := fmt.Sprintf("%s/d%03d", dirs[rng.Intn(len(dirs))], i)
			ops = append(ops, op{kind: 'd', path: d})
			model[d] = treeEntry{kind: "dir"}
			dirs = append(dirs, d)
		case r < 6:
			p := fmt.Sprintf("%s/f%03d", dirs[rng.Intn(len(dirs))], i)
			c := content(fmt.Sprintf("op %d", i), all)
			ops = append(ops, op{kind: 'c', path: p, content: c})
			model[p] = treeEntry{kind: "file", content: c}
			files = append(files, p)
		case r < 8 && len(files) > 0:
			p := files[rng.Intn(len(files))]
			tag, sizes := fmt.Sprintf("rewrite %d", i), all
			if rng.Intn(2) == 0 {
				if sizes = chunked; len(model[p].content) > metadata.MaxInlineSize {
					sizes = inline
				}
			}
			c := content(tag, sizes)
			wasInline, isInline := len(model[p].content) <= metadata.MaxInlineSize, len(c) <= metadata.MaxInlineSize
			if wasInline && !isInline {
				outward++
			} else if !wasInline && isInline {
				inward++
			}
			ops = append(ops, op{kind: 'w', path: p, content: c})
			model[p] = treeEntry{kind: "file", content: c}
		case len(files) > 0:
			j := rng.Intn(len(files))
			ops = append(ops, op{kind: 'r', path: files[j]})
			delete(model, files[j])
			files = append(files[:j], files[j+1:]...)
		}
	}
	if inward == 0 || outward == 0 {
		t.Fatalf("the op stream crosses the inline cap %d times inward and %d outward; want both", inward, outward)
	}

	for _, maxOps := range []int{1, 7, 64} {
		owner := newIdentity(t, "owen")
		env := newWbEnv(t, owner, Config{BucketSize: 8, WritebackMaxOps: maxOps})
		e := env.enclave
		for i, o := range ops {
			var err error
			switch o.kind {
			case 'd':
				err = e.Mkdir(o.path)
			case 'c':
				if err = e.Touch(o.path); err == nil {
					err = e.WriteFile(o.path, []byte(o.content))
				}
			case 'w':
				err = e.WriteFile(o.path, []byte(o.content))
			case 'r':
				err = e.Remove(o.path)
			}
			if err != nil {
				t.Fatalf("limit %d: op %d (%c %s): %v", maxOps, i, o.kind, o.path, err)
			}
		}
		if err := e.SyncMetadata(); err != nil {
			t.Fatalf("limit %d: SyncMetadata: %v", maxOps, err)
		}
		// Read the tree through a restarted enclave so the comparison is
		// about persisted store state, not the writer's memory.
		got := snapshotTree(t, env.freshEnclave(t, env.cfg.Store), "/")
		if len(got) != len(model) {
			t.Fatalf("limit %d: fresh mount has %d paths, model has %d", maxOps, len(got), len(model))
		}
		for p, want := range model {
			if have, ok := got[p]; !ok || have != want {
				t.Fatalf("limit %d: path %s = %+v (present %v), model says %+v", maxOps, p, have, ok, want)
			}
		}
	}
}

// TestCacheHitVersionSurvivesFreshnessLoss is the regression for the
// cache-hit version bug: loadDirnode used to return e.freshness[id] on
// a cache hit, which is 0 once the freshness entry is gone, making the
// next flush write version 1 and torch the object's history.
func TestCacheHitVersionSurvivesFreshnessLoss(t *testing.T) {
	owner := newIdentity(t, "owen")
	env, _, _ := newMountedVolume(t, owner)
	e := env.enclave
	if err := e.Touch("/f"); err != nil {
		t.Fatal(err)
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	root := e.super.RootDir
	_, v1, err := e.loadDirnode(root, e.super.VolumeUUID)
	if err != nil {
		t.Fatal(err)
	}
	if v1 == 0 {
		t.Fatal("root dirnode version 0 after a flush")
	}
	// Simulate freshness-map loss (e.g. an eviction strategy or a future
	// partial reload): the cached copy must still report its preamble
	// version, not the missing map entry.
	delete(e.freshness, root)
	hitsBefore := e.metrics.metadataCacheHits.Value()
	_, v2, err := e.loadDirnode(root, e.super.VolumeUUID)
	if err != nil {
		t.Fatal(err)
	}
	if e.metrics.metadataCacheHits.Value() == hitsBefore {
		t.Fatal("second load missed the cache; test is not exercising the hit path")
	}
	if v2 != v1 {
		t.Fatalf("cache hit returned version %d, want %d", v2, v1)
	}
}

// TestEPCReturnsToZeroAfterRemove audits the enclave's EPC accounting
// across a create/write/remove cycle, draining per op (every remove is
// a staged delete) and batched (removes cancel pending creates): once
// the caches are dropped and the dirty set drained, every byte charged
// for cached or pinned metadata must be back with the platform.
func TestEPCReturnsToZeroAfterRemove(t *testing.T) {
	for _, maxOps := range []int{1, 64} {
		t.Run(fmt.Sprintf("maxops=%d", maxOps), func(t *testing.T) {
			owner := newIdentity(t, "owen")
			env := newWbEnv(t, owner, Config{WritebackMaxOps: maxOps})
			e := env.enclave
			e.DropCaches()
			baseline := e.sgx.HeapEPC()

			for i := 0; i < 8; i++ {
				p := fmt.Sprintf("/f%d", i)
				if err := e.Touch(p); err != nil {
					t.Fatal(err)
				}
				if err := e.WriteFile(p, []byte("payload")); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Mkdir("/d"); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 8; i++ {
				if err := e.Remove(fmt.Sprintf("/f%d", i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Remove("/d"); err != nil {
				t.Fatal(err)
			}
			if err := e.SyncMetadata(); err != nil {
				t.Fatal(err)
			}
			e.DropCaches()
			if got := e.sgx.HeapEPC(); got != baseline {
				t.Fatalf("HeapEPC = %d after cycle, want baseline %d (leak of %d bytes)", got, baseline, got-baseline)
			}
		})
	}
}

// TestWritebackFlushReduction asserts the headline win: the same
// metadata-heavy workload batched at the default limit issues well
// under 70% of the metadata flushes it costs when drained per op.
func TestWritebackFlushReduction(t *testing.T) {
	const files = 24
	run := func(maxOps int) int64 {
		owner := newIdentity(t, "owen")
		env := newWbEnv(t, owner, Config{WritebackMaxOps: maxOps})
		e := env.enclave
		before := e.Stats().MetadataFlushes
		for i := 0; i < files; i++ {
			p := fmt.Sprintf("/f%02d", i)
			if err := e.Touch(p); err != nil {
				t.Fatal(err)
			}
			if err := e.WriteFile(p, []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.SyncMetadata(); err != nil {
			t.Fatal(err)
		}
		return e.Stats().MetadataFlushes - before
	}
	batched := run(64)
	perOp := run(1)
	// Batched, the drain seals each new filenode and the directory — one
	// object — once; per op, a create seals the filenode and the
	// directory, and the write the filenode again.
	if batched != files+1 || perOp != 3*files {
		t.Fatalf("flushes: batched %d, per-op %d; want %d and %d", batched, perOp, files+1, 3*files)
	}
	if float64(batched) >= 0.7*float64(perOp) {
		t.Fatalf("batched used %d flushes vs per-op %d; want < 70%%", batched, perOp)
	}
}

// TestWritebackObservability checks the instrumentation contract: dirty
// marks move enclave_metadata_dirty_total and the gauge, a drain bumps
// enclave_flush_batches_total, zeroes the gauge, and emits an
// enclave.flush_batch span tagged with the batch size.
func TestWritebackObservability(t *testing.T) {
	reg := obs.NewRegistry()
	owner := newIdentity(t, "owen")
	env := newWbEnv(t, owner, Config{Obs: reg})
	e := env.enclave

	reg.Tracer().Enable()
	defer reg.Tracer().Disable()

	if err := e.Touch("/f"); err != nil {
		t.Fatal(err)
	}
	if reg.CounterValue("enclave_metadata_dirty_total") == 0 {
		t.Fatal("enclave_metadata_dirty_total did not move on Touch")
	}
	if reg.GaugeValue("enclave_metadata_dirty") == 0 {
		t.Fatal("enclave_metadata_dirty gauge is zero with pending metadata")
	}
	batchesBefore := reg.CounterValue("enclave_flush_batches_total")
	if err := e.SyncMetadata(); err != nil {
		t.Fatal(err)
	}
	if reg.CounterValue("enclave_flush_batches_total") != batchesBefore+1 {
		t.Fatal("enclave_flush_batches_total did not increment on drain")
	}
	if g := reg.GaugeValue("enclave_metadata_dirty"); g != 0 {
		t.Fatalf("enclave_metadata_dirty gauge = %d after drain, want 0", g)
	}

	var batch *obs.Span
	var find func(spans []*obs.Span)
	find = func(spans []*obs.Span) {
		for _, s := range spans {
			if s.Name == "enclave.flush_batch" {
				batch = s
			}
			find(s.Children)
		}
	}
	find(reg.Tracer().Take())
	if batch == nil {
		t.Fatal("no enclave.flush_batch span recorded")
	}
	tags := make(map[string]bool)
	for _, tag := range batch.Tags {
		tags[tag.Key] = true
	}
	for _, want := range []string{"objects", "ops", "deletes"} {
		if !tags[want] {
			t.Fatalf("flush_batch span missing tag %q (have %v)", want, batch.Tags)
		}
	}
}

// TestWritebackHighWaterDrain checks that the op-count high-water mark
// drains the set inline, without an explicit barrier.
func TestWritebackHighWaterDrain(t *testing.T) {
	owner := newIdentity(t, "owen")
	env := newWbEnv(t, owner, Config{WritebackMaxOps: 8})
	e := env.enclave
	for i := 0; i < 16; i++ {
		if err := e.Touch(fmt.Sprintf("/f%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	e.mu.Lock()
	batches := e.metrics.flushBatches.Value()
	e.mu.Unlock()
	if batches == 0 {
		t.Fatal("high-water mark never drained the dirty set")
	}
}

// TestWritebackRemovePendingCreateLeavesNoResidue removes a file that
// only ever existed in the dirty set: the drain must not upload it, and
// the store must hold nothing for it.
func TestWritebackRemovePendingCreateLeavesNoResidue(t *testing.T) {
	store := newMemObjectStore()
	owner := newIdentity(t, "owen")
	env := newWbEnv(t, owner, Config{Store: store})
	e := env.enclave
	if err := e.Touch("/ghost"); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteFile("/ghost", []byte("ectoplasm")); err != nil {
		t.Fatal(err)
	}
	if err := e.Remove("/ghost"); err != nil {
		t.Fatal(err)
	}
	if err := e.SyncMetadata(); err != nil {
		t.Fatal(err)
	}
	fresh := env.freshEnclave(t, store)
	if names := dirNames(t, fresh, "/"); names["ghost"] {
		t.Fatal("cancelled pending create reached the store")
	}
	if _, err := fresh.ReadFile("/ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ReadFile(ghost) = %v, want ErrNotFound", err)
	}
}

// TestWritebackConcurrentDrainMergesOpLog exercises the drain's merge
// path: a second client advances the root dirnode between the first
// client's marks and its drain, so the drain must replay its op log
// (inserts, a conflicting insert, a remove) onto the fresh copy instead
// of clobbering the other client's entries.
func TestWritebackConcurrentDrainMergesOpLog(t *testing.T) {
	owner := newIdentity(t, "owen")
	env := newWbEnv(t, owner, Config{})
	a := env.enclave
	if err := a.Touch("/seed"); err != nil {
		t.Fatal(err)
	}
	if err := a.SyncMetadata(); err != nil {
		t.Fatal(err)
	}

	// A second live client on the same platform and store.
	b := env.freshEnclave(t, env.cfg.Store)
	if err := b.Touch("/b"); err != nil {
		t.Fatal(err)
	}
	if err := b.Touch("/same"); err != nil {
		t.Fatal(err)
	}

	// a batches against the pre-b version of the root...
	if err := a.Touch("/a"); err != nil {
		t.Fatal(err)
	}
	if err := a.Touch("/same"); err != nil {
		t.Fatal(err)
	}
	if err := a.Remove("/seed"); err != nil {
		t.Fatal(err)
	}
	// ...b publishes first, advancing the store...
	if err := b.SyncMetadata(); err != nil {
		t.Fatal(err)
	}
	// ...so a's drain must merge, not overwrite.
	if err := a.SyncMetadata(); err != nil {
		t.Fatal(err)
	}

	fresh := env.freshEnclave(t, env.cfg.Store)
	names := dirNames(t, fresh, "/")
	for _, want := range []string{"a", "b", "same"} {
		if !names[want] {
			t.Fatalf("entry %q lost in merge (have %v)", want, names)
		}
	}
	if names["seed"] {
		t.Fatal("removed entry survived the merge")
	}
	if _, err := fresh.ReadFile("/same"); err != nil {
		t.Fatalf("conflicting insert left a dangling entry: %v", err)
	}
}

// TestDirtyShadowRebasedOnTornBucket: a client holds a dirty write-back
// shadow of a directory of more than one bucket and has not loaded its
// overflow bucket; a peer flushes the directory twice, so the bucket the
// shadow names is overwritten. Every walk returns the shadow, so without
// a re-base the torn-snapshot error outlives every retry (until the
// client's next drain). The shadow must instead be re-based on the store's
// main object, its op log replayed, and the operation succeed.
func TestDirtyShadowRebasedOnTornBucket(t *testing.T) {
	mem := newMemObjectStore()
	owner := newIdentity(t, "owen")
	env := newWbEnv(t, owner, Config{Store: mem, WritebackMaxOps: 1})
	peer := env.enclave
	if err := peer.Mkdir("/big"); err != nil {
		t.Fatal(err)
	}
	// Default bucket size: e000-e127 fill bucket 0, e128 and e129 start
	// the overflow bucket.
	const entries = metadata.DefaultBucketSize + 2
	for i := 0; i < entries; i++ {
		if err := peer.Symlink("target", fmt.Sprintf("/big/e%03d", i)); err != nil {
			t.Fatal(err)
		}
	}

	env.cfg.WritebackMaxOps = 64
	victim := env.freshEnclave(t, mem)
	// The removed entry is in bucket 0: the overflow bucket stays unloaded
	// and the shadow stays dirty.
	if err := victim.Remove("/big/e000"); err != nil {
		t.Fatal(err)
	}
	// Two peer flushes, each rewriting the overflow bucket: the second
	// lands on the slot the first retired — the name the shadow holds.
	if err := peer.Remove("/big/e128"); err != nil {
		t.Fatal(err)
	}
	if err := peer.Symlink("target", "/big/peer"); err != nil {
		t.Fatal(err)
	}

	if st, err := victim.Lookup("/big/e129"); err != nil || st.Kind != metadata.KindSymlink {
		t.Fatalf("Lookup through the dirty shadow after two peer flushes = %+v, %v", st, err)
	}
	// The re-based shadow is the peer's directory with the victim's own
	// pending remove on top.
	for name, want := range map[string]bool{"e000": false, "e001": true, "e128": false, "e129": true, "peer": true} {
		_, err := victim.Lookup("/big/" + name)
		if want && err != nil || !want && !errors.Is(err, ErrNotFound) {
			t.Fatalf("victim Lookup(%s) = %v, want present=%v", name, err, want)
		}
	}
	if err := victim.SyncMetadata(); err != nil {
		t.Fatalf("draining the re-based shadow: %v", err)
	}
	names := dirNames(t, env.freshEnclave(t, mem), "/big")
	if len(names) != entries-1 || names["e000"] || names["e128"] || !names["peer"] {
		t.Fatalf("after the drain the store holds %d entries (e000 %v, e128 %v, peer %v), want %d without e000 and e128, with peer",
			len(names), names["e000"], names["e128"], names["peer"], entries-1)
	}
}

// TestWritebackRemoveVariants walks Remove's branches: on-store
// directories and files (staged deletes), hardlinked files (inline
// link-count decrement), symlinks, pending directories
// (cancelled creates), and missing paths.
func TestWritebackRemoveVariants(t *testing.T) {
	store := newMemObjectStore()
	owner := newIdentity(t, "owen")
	env := newWbEnv(t, owner, Config{Store: store})
	e := env.enclave

	// On-store directory and file.
	if err := e.Mkdir("/dir"); err != nil {
		t.Fatal(err)
	}
	if err := e.Touch("/file"); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteFile("/file", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := e.SyncMetadata(); err != nil {
		t.Fatal(err)
	}
	if err := e.Remove("/dir"); err != nil {
		t.Fatal(err)
	}
	if err := e.Remove("/file"); err != nil {
		t.Fatal(err)
	}

	// Hardlinked file: the first unlink only drops the link count.
	if err := e.Touch("/h"); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteFile("/h", []byte("linked")); err != nil {
		t.Fatal(err)
	}
	if err := e.Hardlink("/h", "/h2"); err != nil {
		t.Fatal(err)
	}
	if err := e.Remove("/h"); err != nil {
		t.Fatal(err)
	}
	if data, err := e.ReadFile("/h2"); err != nil || string(data) != "linked" {
		t.Fatalf("surviving hardlink read = %q, %v", data, err)
	}
	if err := e.Remove("/h2"); err != nil {
		t.Fatal(err)
	}

	// Symlink: entry-only create and remove.
	if err := e.Symlink("/file", "/sl"); err != nil {
		t.Fatal(err)
	}
	if err := e.Remove("/sl"); err != nil {
		t.Fatal(err)
	}

	// Pending directory: cancelled before it ever reaches the store.
	if err := e.Mkdir("/pending"); err != nil {
		t.Fatal(err)
	}
	if err := e.Remove("/pending"); err != nil {
		t.Fatal(err)
	}

	// Error branches.
	if err := e.Remove("/nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Remove(missing) = %v, want ErrNotFound", err)
	}
	if err := e.Touch("/file2"); err != nil {
		t.Fatal(err)
	}
	if err := e.Touch("/file2"); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate Touch = %v, want ErrExists", err)
	}

	if err := e.SyncMetadata(); err != nil {
		t.Fatal(err)
	}
	fresh := env.freshEnclave(t, store)
	names := dirNames(t, fresh, "/")
	if len(names) != 1 || !names["file2"] {
		t.Fatalf("final tree = %v, want just file2", names)
	}
}

// TestWritebackEPCPressureForcesDrain exhausts the platform's EPC so
// the dirty-set charge fails: the mark must still succeed, flag
// pressure, and force an inline drain that publishes the entry. The
// metadata cache cannot charge its entries either, so every object the
// operations load or flush stays uncached and must still be served
// correctly from the store.
func TestWritebackEPCPressureForcesDrain(t *testing.T) {
	store := newMemObjectStore()
	owner := newIdentity(t, "owen")
	env := newWbEnv(t, owner, Config{Store: store})
	e := env.enclave

	// Grab the whole EPC budget, the cache's share included (binary
	// descent, so the hog ends within one byte of the true remainder).
	e.DropCaches()
	hitsBefore := e.Stats().MetadataCacheHits
	var hog int64
	for chunk := int64(1 << 32); chunk >= 1; chunk /= 2 {
		for e.sgx.AllocEPC(chunk) == nil {
			hog += chunk
		}
	}
	if err := e.Touch("/pressured"); err != nil {
		t.Fatalf("Touch under EPC pressure: %v", err)
	}
	if err := e.WriteFile("/pressured", []byte("uncached")); err != nil {
		t.Fatalf("WriteFile under EPC pressure: %v", err)
	}
	if got, err := e.ReadFile("/pressured"); err != nil || string(got) != "uncached" {
		t.Fatalf("ReadFile under EPC pressure = %q, %v", got, err)
	}
	if st, err := e.Lookup("/pressured"); err != nil || st.Size != uint64(len("uncached")) {
		t.Fatalf("Lookup under EPC pressure = %+v, %v", st, err)
	}
	if hits := e.Stats().MetadataCacheHits - hitsBefore; hits != 0 {
		t.Fatalf("%d metadata cache hits with no EPC left to cache in", hits)
	}
	e.sgx.FreeEPC(hog)

	e.mu.Lock()
	pendingNodes := len(e.wb.nodes)
	e.mu.Unlock()
	if pendingNodes != 0 {
		t.Fatalf("%d dirty nodes still pending; EPC pressure did not drain", pendingNodes)
	}
	fresh := env.freshEnclave(t, store)
	if names := dirNames(t, fresh, "/"); !names["pressured"] {
		t.Fatalf("pressure-drained entry missing from store view: %v", names)
	}
}
