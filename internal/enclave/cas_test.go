package enclave

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"nexus/internal/chunker"
)

// cdcConfig is the standard content-defined test configuration: a
// 4 KiB average chunk keeps the test files small while still cutting
// plenty of chunks per file.
// cdcConfig drains after every mutation, so each test reads store
// state without a barrier of its own; the write-back tests below lift
// the limit to the default.
func cdcConfig() Config {
	return Config{ContentDefined: true, ChunkSize: 4096, WritebackMaxOps: 1}
}

// chunkObjects counts the CAS chunk objects on the env's store,
// excluding the ref-table object (which shares the "cas-" prefix).
func chunkObjects(t *testing.T, env *wbEnv) int {
	t.Helper()
	store, ok := env.cfg.Store.(*memObjectStore)
	if !ok {
		t.Fatalf("env store is %T, want *memObjectStore", env.cfg.Store)
	}
	names, err := store.mem.List("cas-")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, name := range names {
		if name != RefTableObjectName {
			n++
		}
	}
	return n
}

// cdcData builds deterministic pseudo-random content; random bytes
// give the rolling hash realistic cut density.
func cdcData(seed int64, n int) []byte {
	data := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

func TestCDCWriteReadRoundTrip(t *testing.T) {
	env := newWbEnv(t, newIdentity(t, "owner"), cdcConfig())
	e := env.enclave
	data := cdcData(1, 50_000)
	if err := e.Touch("/f"); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteFile("/f", data); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := e.ReadFile("/f")
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}

	st := e.Stats()
	if st.DedupChunksUploaded < 2 {
		t.Fatalf("uploaded %d chunks, want several", st.DedupChunksUploaded)
	}
	if n := chunkObjects(t, env); int64(n) != st.DedupChunksUploaded {
		t.Fatalf("store holds %d chunk objects, stats say %d uploaded", n, st.DedupChunksUploaded)
	}

	// A restarted enclave must reassemble the file purely from the
	// store: extent filenode, chunk objects, convergent keys.
	fresh := env.freshEnclave(t, env.cfg.Store)
	got, err = fresh.ReadFile("/f")
	if err != nil {
		t.Fatalf("fresh ReadFile: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("fresh enclave round trip mismatch")
	}
}

func TestCDCDedupAcrossFiles(t *testing.T) {
	env := newWbEnv(t, newIdentity(t, "owner"), cdcConfig())
	e := env.enclave
	data := cdcData(2, 64_000)
	for _, p := range []string{"/a", "/b"} {
		if err := e.Touch(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.WriteFile("/a", data); err != nil {
		t.Fatal(err)
	}
	before := chunkObjects(t, env)
	uploadsBefore := e.Stats().DedupChunksUploaded

	// Identical plaintext in a second file stores nothing new.
	if err := e.WriteFile("/b", data); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.DedupChunksUploaded != uploadsBefore {
		t.Fatalf("second copy uploaded %d chunks", st.DedupChunksUploaded-uploadsBefore)
	}
	if st.DedupHits == 0 || st.DedupBytesSkipped < int64(len(data)) {
		t.Fatalf("dedup stats hits=%d skipped=%d, want full-file skip", st.DedupHits, st.DedupBytesSkipped)
	}
	if n := chunkObjects(t, env); n != before {
		t.Fatalf("chunk objects %d -> %d after duplicate write", before, n)
	}
	got, err := e.ReadFile("/b")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("duplicate file read: %v", err)
	}
}

func TestCDCEditLocality(t *testing.T) {
	env := newWbEnv(t, newIdentity(t, "owner"), cdcConfig())
	e := env.enclave
	data := cdcData(3, 256*1024)
	if err := e.Touch("/f"); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteFile("/f", data); err != nil {
		t.Fatal(err)
	}
	uploadsBefore := e.Stats().DedupChunksUploaded

	// A one-byte edit must re-upload only the chunks it lands in —
	// boundaries resynchronize, so the tail survives untouched.
	edited := bytes.Clone(data)
	edited[len(edited)/2] ^= 0xff
	if err := e.WriteFile("/f", edited); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	delta := st.DedupChunksUploaded - uploadsBefore
	if delta == 0 || delta > 4 {
		t.Fatalf("point edit re-uploaded %d chunks, want 1..4", delta)
	}
	if st.DedupHits == 0 {
		t.Fatal("point edit recorded no dedup hits")
	}
	got, err := e.ReadFile("/f")
	if err != nil || !bytes.Equal(got, edited) {
		t.Fatalf("post-edit read: %v", err)
	}
}

func TestCDCRemoveGC(t *testing.T) {
	env := newWbEnv(t, newIdentity(t, "owner"), cdcConfig())
	e := env.enclave
	data := cdcData(4, 40_000)
	for _, p := range []string{"/a", "/b"} {
		if err := e.Touch(p); err != nil {
			t.Fatal(err)
		}
		if err := e.WriteFile(p, data); err != nil {
			t.Fatal(err)
		}
	}
	shared := chunkObjects(t, env)
	if shared == 0 {
		t.Fatal("no chunk objects after writes")
	}

	// Removing one of two referencing files must not free the chunks.
	if err := e.Remove("/a"); err != nil {
		t.Fatal(err)
	}
	if n := chunkObjects(t, env); n != shared {
		t.Fatalf("chunks dropped from %d to %d while still referenced", shared, n)
	}
	if got, err := e.ReadFile("/b"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("surviving file read: %v", err)
	}

	// Removing the last reference frees every chunk.
	if err := e.Remove("/b"); err != nil {
		t.Fatal(err)
	}
	if n := chunkObjects(t, env); n != 0 {
		t.Fatalf("%d chunk objects leaked after last unlink", n)
	}
}

func TestCDCOverwriteGC(t *testing.T) {
	env := newWbEnv(t, newIdentity(t, "owner"), cdcConfig())
	e := env.enclave
	if err := e.Touch("/f"); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteFile("/f", cdcData(5, 60_000)); err != nil {
		t.Fatal(err)
	}

	// An overwrite with unrelated content replaces every extent; the
	// old chunks drop at the tail of the next drain.
	data2 := cdcData(6, 60_000)
	if err := e.WriteFile("/f", data2); err != nil {
		t.Fatal(err)
	}
	if err := e.SyncMetadata(); err != nil {
		t.Fatal(err)
	}
	want := len(boundariesFor(t, data2))
	if n := chunkObjects(t, env); n != want {
		t.Fatalf("store holds %d chunk objects after overwrite, want %d", n, want)
	}
	fresh := env.freshEnclave(t, env.cfg.Store)
	if got, err := fresh.ReadFile("/f"); err != nil || !bytes.Equal(got, data2) {
		t.Fatalf("post-overwrite fresh read: %v", err)
	}

	// Truncate-to-empty drops the last references too.
	if err := e.WriteFile("/f", nil); err != nil {
		t.Fatal(err)
	}
	if err := e.SyncMetadata(); err != nil {
		t.Fatal(err)
	}
	if n := chunkObjects(t, env); n != 0 {
		t.Fatalf("%d chunk objects leaked after truncate-to-empty", n)
	}
	if got, err := e.ReadFile("/f"); err != nil || len(got) != 0 {
		t.Fatalf("read after truncate-to-empty: %d bytes, err %v", len(got), err)
	}
}

// boundariesFor computes the expected chunk count for content written
// under cdcConfig, via the same chunker parameters the enclave uses.
func boundariesFor(t *testing.T, data []byte) []int {
	t.Helper()
	cfg := cdcConfig()
	cuts, err := chunker.Boundaries(chunker.Config{
		Min: int(cfg.ChunkSize) / 4,
		Avg: int(cfg.ChunkSize),
		Max: int(cfg.ChunkSize) * 4,
	}, data)
	if err != nil {
		t.Fatal(err)
	}
	return cuts
}

func TestCDCHardlinkKeepsChunks(t *testing.T) {
	env := newWbEnv(t, newIdentity(t, "owner"), cdcConfig())
	e := env.enclave
	data := cdcData(7, 30_000)
	if err := e.Touch("/a"); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteFile("/a", data); err != nil {
		t.Fatal(err)
	}
	if err := e.Hardlink("/a", "/b"); err != nil {
		t.Fatal(err)
	}
	n := chunkObjects(t, env)

	// Unlinking one name only drops a link count — chunks stay put.
	if err := e.Remove("/a"); err != nil {
		t.Fatal(err)
	}
	if got := chunkObjects(t, env); got != n {
		t.Fatalf("chunks %d -> %d after non-final unlink", n, got)
	}
	if got, err := e.ReadFile("/b"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read via surviving link: %v", err)
	}
	if err := e.Remove("/b"); err != nil {
		t.Fatal(err)
	}
	if got := chunkObjects(t, env); got != 0 {
		t.Fatalf("%d chunks leaked after final unlink", got)
	}
}

func TestCDCLegacyConversion(t *testing.T) {
	// Volume starts with fixed-size chunking; the knob flips on a
	// later mount and the next write converts the file in place.
	env := newWbEnv(t, newIdentity(t, "owner"), Config{ChunkSize: 4096, WritebackMaxOps: 1})
	e := env.enclave
	legacy := cdcData(8, 20_000)
	if err := e.Touch("/f"); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteFile("/f", legacy); err != nil {
		t.Fatal(err)
	}
	store := env.cfg.Store.(*memObjectStore)
	before, err := store.mem.List("")
	if err != nil {
		t.Fatal(err)
	}
	if chunkObjects(t, env) != 0 {
		t.Fatal("legacy write produced CAS objects")
	}

	env.cfg.ContentDefined = true
	e2 := env.freshEnclave(t, env.cfg.Store)
	// Reads never consult the knob: the legacy file stays readable.
	if got, err := e2.ReadFile("/f"); err != nil || !bytes.Equal(got, legacy) {
		t.Fatalf("legacy read under CDC mount: %v", err)
	}
	// The first write converts: extents appear, and the old monolithic
	// data object is deleted at the next drain.
	updated := cdcData(9, 25_000)
	if err := e2.WriteFile("/f", updated); err != nil {
		t.Fatalf("converting write: %v", err)
	}
	if err := e2.SyncMetadata(); err != nil {
		t.Fatal(err)
	}
	if chunkObjects(t, env) == 0 {
		t.Fatal("converting write produced no CAS objects")
	}
	after, err := store.mem.List("")
	if err != nil {
		t.Fatal(err)
	}
	afterSet := make(map[string]bool, len(after))
	for _, name := range after {
		afterSet[name] = true
	}
	// Exactly one pre-conversion object — the legacy data blob —
	// must have disappeared.
	var gone []string
	for _, name := range before {
		if !afterSet[name] && !strings.HasPrefix(name, "cas-") {
			gone = append(gone, name)
		}
	}
	if len(gone) != 1 {
		t.Fatalf("conversion deleted %d objects (%v), want the one legacy data object", len(gone), gone)
	}
	if got, err := e2.ReadFile("/f"); err != nil || !bytes.Equal(got, updated) {
		t.Fatalf("post-conversion read: %v", err)
	}
	fresh := env.freshEnclave(t, env.cfg.Store)
	if got, err := fresh.ReadFile("/f"); err != nil || !bytes.Equal(got, updated) {
		t.Fatalf("post-conversion fresh read: %v", err)
	}
}

func TestCDCWritebackDrainGC(t *testing.T) {
	cfg := cdcConfig()
	cfg.WritebackMaxOps = defaultWritebackMaxOps
	env := newWbEnv(t, newIdentity(t, "owner"), cfg)
	e := env.enclave
	data := cdcData(10, 48_000)
	if err := e.Touch("/f"); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteFile("/f", data); err != nil {
		t.Fatal(err)
	}
	// Chunks upload eagerly even under write-back — only metadata and
	// GC defer.
	first := chunkObjects(t, env)
	if first == 0 {
		t.Fatal("write-back write uploaded no chunks")
	}

	data2 := cdcData(11, 48_000)
	if err := e.WriteFile("/f", data2); err != nil {
		t.Fatal(err)
	}
	// Replaced chunks linger until the batch drains: the on-store
	// filenode may still reference them.
	if n := chunkObjects(t, env); n <= len(boundariesFor(t, data2)) {
		t.Fatalf("replaced chunks dropped before drain (%d objects)", n)
	}
	if err := e.SyncMetadata(); err != nil {
		t.Fatalf("SyncMetadata: %v", err)
	}
	if n, want := chunkObjects(t, env), len(boundariesFor(t, data2)); n != want {
		t.Fatalf("after drain: %d chunk objects, want %d", n, want)
	}
	fresh := env.freshEnclave(t, env.cfg.Store)
	if got, err := fresh.ReadFile("/f"); err != nil || !bytes.Equal(got, data2) {
		t.Fatalf("post-drain fresh read: %v", err)
	}

	// Remove + drain frees everything.
	if err := e.Remove("/f"); err != nil {
		t.Fatal(err)
	}
	if err := e.SyncMetadata(); err != nil {
		t.Fatal(err)
	}
	if n := chunkObjects(t, env); n != 0 {
		t.Fatalf("%d chunk objects leaked after remove+drain", n)
	}
}

func TestCDCWritebackPendingCreateRemove(t *testing.T) {
	cfg := cdcConfig()
	cfg.WritebackMaxOps = defaultWritebackMaxOps
	env := newWbEnv(t, newIdentity(t, "owner"), cfg)
	e := env.enclave
	if err := e.Touch("/f"); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteFile("/f", cdcData(12, 32_000)); err != nil {
		t.Fatal(err)
	}
	// Create and remove inside one batch: the filenode never reaches
	// the store, but the chunks did — the drain must reap them.
	if err := e.Remove("/f"); err != nil {
		t.Fatal(err)
	}
	if err := e.SyncMetadata(); err != nil {
		t.Fatal(err)
	}
	if n := chunkObjects(t, env); n != 0 {
		t.Fatalf("%d chunk objects leaked from cancelled create", n)
	}
}

func TestCDCRefTableRollbackDetected(t *testing.T) {
	env := newWbEnv(t, newIdentity(t, "owner"), cdcConfig())
	e := env.enclave
	for _, p := range []string{"/a", "/b", "/c"} {
		if err := e.Touch(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.WriteFile("/a", cdcData(13, 20_000)); err != nil {
		t.Fatal(err)
	}
	store := env.cfg.Store.(*memObjectStore)
	old, err := store.mem.Get(RefTableObjectName)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.WriteFile("/b", cdcData(14, 20_000)); err != nil {
		t.Fatal(err)
	}
	// A storage service replaying the older ref table is a rollback:
	// accepting it would erase /b's references and free live chunks.
	if err := store.mem.Put(RefTableObjectName, old); err != nil {
		t.Fatal(err)
	}
	err = e.WriteFile("/c", cdcData(15, 20_000))
	if !errors.Is(err, ErrStaleMetadata) {
		t.Fatalf("write over rolled-back ref table: %v, want ErrStaleMetadata", err)
	}
}
