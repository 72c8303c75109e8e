package nexus

import (
	"bytes"
	"fmt"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nexus/internal/afs"
	"nexus/internal/backend"
	"nexus/internal/freshtree"
	"nexus/internal/obs"
)

// obsStack is a full client over a real AFS server with one shared
// observability registry across every layer (vfs facade, enclave, SGX
// transitions, AFS client), mirroring a production deployment.
type obsStack struct {
	reg    *Obs
	client *Client
	vol    *Volume
	afs    *afs.Client
	owner  Identity
	ias    *AttestationService
	addr   string // the AFS server's
}

// obsChunkSize is the obs stack's chunk size.
const obsChunkSize = 1024

func startObsStack(t *testing.T) *obsStack {
	t.Helper()
	return startObsStackWith(t, afs.ClientConfig{})
}

// startObsStackWith is startObsStack with the AFS client configured by
// afsCfg (its Obs is always the stack's registry).
func startObsStackWith(t *testing.T, afsCfg afs.ClientConfig) *obsStack {
	t.Helper()
	srv := afs.NewServer(backend.NewMemStore())
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	t.Cleanup(func() { _ = srv.Close() })

	reg := NewObs()
	afsCfg.Obs = reg
	afsClient, err := afs.Dial(l.Addr().String(), afsCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = afsClient.Close() })

	ias, err := NewAttestationService()
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(ClientConfig{
		Store: afsClient,
		IAS:   ias,
		Obs:   reg,
		// Small chunks so a chunked file spans an exact, assertable number
		// of crypto chunks: ChunkedFile's bytes / 1024, rounded up.
		ChunkSize: obsChunkSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	if client.Obs() != reg {
		t.Fatal("Client.Obs() did not return the configured registry")
	}
	owner, err := NewIdentity("owner")
	if err != nil {
		t.Fatal(err)
	}
	vol, _, err := client.CreateVolume(owner)
	if err != nil {
		t.Fatal(err)
	}
	return &obsStack{reg: reg, client: client, vol: vol, afs: afsClient, owner: owner, ias: ias, addr: l.Addr().String()}
}

// counterDelta reads a set of counters before fn and returns how much
// each moved across it.
func counterDelta(reg *Obs, names []string, fn func()) map[string]int64 {
	before := make(map[string]int64, len(names))
	for _, n := range names {
		before[n] = reg.CounterValue(n)
	}
	fn()
	delta := make(map[string]int64, len(names))
	for _, n := range names {
		delta[n] = reg.CounterValue(n) - before[n]
	}
	return delta
}

// findSpan walks a span forest depth-first for the first span whose name
// matches exactly.
func findSpan(spans []*Span, name string) *Span {
	for _, s := range spans {
		if s.Name == name {
			return s
		}
		if found := findSpan(s.Children, name); found != nil {
			return found
		}
	}
	return nil
}

func hasDescendantPrefix(s *Span, prefix string) bool {
	for _, c := range s.Children {
		if strings.HasPrefix(c.Name, prefix) || hasDescendantPrefix(c, prefix) {
			return true
		}
	}
	return false
}

func tagValue(s *Span, key string) (string, bool) {
	for _, tg := range s.Tags {
		if tg.Key == key {
			return tg.Value, true
		}
	}
	return "", false
}

// TestObservabilityEndToEnd drives write → read → revoke through a full
// client stack and asserts both the span-tree shape (vfs parents the
// enclave transition spans, which parent the AFS RPC spans) and the
// exact metric deltas each phase must produce.
func TestObservabilityEndToEnd(t *testing.T) {
	st := startObsStack(t)
	fs := st.vol.FS()
	if err := fs.MkdirAll("/docs"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Touch("/docs/f.bin"); err != nil {
		t.Fatal(err)
	}

	tracer := st.reg.Tracer()
	tracer.Enable()
	defer tracer.Disable()

	data := ChunkedFile(0xA5)
	chunks := int64((len(data) + obsChunkSize - 1) / obsChunkSize)

	// --- Write ---
	tracer.Take() // discard setup spans
	wDelta := counterDelta(st.reg, []string{
		"vfs_write_total",
		"enclave_chunk_crypto_chunks_total",
	}, func() {
		if err := fs.WriteFile("/docs/f.bin", data); err != nil {
			t.Fatal(err)
		}
	})
	if wDelta["vfs_write_total"] != 1 {
		t.Errorf("write: vfs_write_total moved %d, want 1", wDelta["vfs_write_total"])
	}
	// Every chunk encrypted once, none decrypted.
	if wDelta["enclave_chunk_crypto_chunks_total"] != chunks {
		t.Errorf("write: chunk crypto chunks moved %d, want %d", wDelta["enclave_chunk_crypto_chunks_total"], chunks)
	}

	wSpans := tracer.Take()
	wRoot := findSpan(wSpans, "vfs.write")
	if wRoot == nil {
		t.Fatalf("no vfs.write root span; roots: %v", spanNames(wSpans))
	}
	ecall := findSpan(wRoot.Children, "sgx.ecall")
	if ecall == nil {
		t.Fatal("vfs.write has no sgx.ecall child")
	}
	if findSpan(wSpans, "enclave.chunkcrypto") == nil {
		t.Error("write produced no enclave.chunkcrypto span")
	} else if tag, ok := tagValue(findSpan(wSpans, "enclave.chunkcrypto"), "chunks"); !ok || tag != strconv.FormatInt(chunks, 10) {
		t.Errorf("chunkcrypto span chunks tag = %q, want \"%d\"", tag, chunks)
	}
	// The write must reach the server: some enclave transition span must
	// have an AFS RPC span beneath it (vfs → enclave → afs chain).
	foundRPC := false
	for _, root := range wSpans {
		if root.Name == "vfs.write" && hasDescendantPrefix(root, "afs.") {
			foundRPC = true
		}
	}
	if !foundRPC {
		t.Error("no afs.* span under the vfs.write root")
	}
	// Per-stage durations: parent spans must cover their children.
	if wRoot.Dur <= 0 || ecall.Dur <= 0 || wRoot.Dur < ecall.Dur {
		t.Errorf("span durations inconsistent: vfs.write=%v sgx.ecall=%v", wRoot.Dur, ecall.Dur)
	}

	// --- Read (cold: caches dropped so data must come off the server) ---
	st.client.Enclave().DropCaches()
	st.afs.FlushCache()
	tracer.Take()
	rDelta := counterDelta(st.reg, []string{
		"vfs_read_total",
		"enclave_chunk_crypto_chunks_total",
		"enclave_metadata_loads_total",
	}, func() {
		got, err := fs.ReadFile("/docs/f.bin")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("read returned different bytes")
		}
	})
	if rDelta["vfs_read_total"] != 1 {
		t.Errorf("read: vfs_read_total moved %d, want 1", rDelta["vfs_read_total"])
	}
	// The same chunks come back through the decrypt path.
	if rDelta["enclave_chunk_crypto_chunks_total"] != chunks {
		t.Errorf("read: chunk crypto chunks moved %d, want %d", rDelta["enclave_chunk_crypto_chunks_total"], chunks)
	}
	// A fully cold read verifies every metadata object on the path: the
	// root dirnode (which holds the entry "docs"), the /docs dirnode
	// (which holds "f.bin"), and the filenode — 3 loads. A change here
	// means the metadata I/O pattern changed; re-derive before updating.
	if rDelta["enclave_metadata_loads_total"] != 3 {
		t.Errorf("read: metadata loads moved %d, want 3", rDelta["enclave_metadata_loads_total"])
	}
	rSpans := tracer.Take()
	rRoot := findSpan(rSpans, "vfs.read")
	if rRoot == nil {
		t.Fatalf("no vfs.read root span; roots: %v", spanNames(rSpans))
	}
	if findSpan(rRoot.Children, "sgx.ecall") == nil {
		t.Error("vfs.read has no sgx.ecall child")
	}
	if !hasDescendantPrefix(rRoot, "afs.") {
		t.Error("cold read produced no afs.* span under vfs.read")
	}

	// --- Revoke (ACL update through the facade) ---
	bob, err := NewIdentity("bob")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.vol.AddUser("bob", bob.PublicKey); err != nil {
		t.Fatal(err)
	}
	if err := fs.SetACL("/docs", "bob", ReadOnly); err != nil {
		t.Fatal(err)
	}
	tracer.Take()
	vDelta := counterDelta(st.reg, []string{
		"vfs_setacl_total",
		"enclave_metadata_flushes_total",
	}, func() {
		if err := fs.SetACL("/docs", "bob", NoRights); err != nil {
			t.Fatal(err)
		}
	})
	if vDelta["vfs_setacl_total"] != 1 {
		t.Errorf("revoke: vfs_setacl_total moved %d, want 1", vDelta["vfs_setacl_total"])
	}
	// Revocation is a single-dirnode metadata update (the paper's core
	// claim): one metadata flush plus the Merkle freshness root that
	// accompanies every metadata write under the default freshness
	// mode — and no file re-encryption either way.
	if vDelta["enclave_metadata_flushes_total"] != 2 {
		t.Errorf("revoke: metadata flushes moved %d, want 2 (dirnode + merkle root)", vDelta["enclave_metadata_flushes_total"])
	}
	vSpans := tracer.Take()
	vRoot := findSpan(vSpans, "vfs.setacl")
	if vRoot == nil {
		t.Fatalf("no vfs.setacl root span; roots: %v", spanNames(vSpans))
	}
	if findSpan(vRoot.Children, "sgx.ecall") == nil {
		t.Error("vfs.setacl has no sgx.ecall child")
	}

	// The shared registry serves every layer: one exposition must carry
	// vfs, enclave, sgx, and afs metric families together.
	var sb strings.Builder
	obs.WritePrometheus(&sb, st.reg)
	for _, family := range []string{"vfs_write_total", "enclave_chunk_crypto_chunks_total", "sgx_ecalls_total", "afs_rpcs_total"} {
		if !strings.Contains(sb.String(), family) {
			t.Errorf("exposition missing %s", family)
		}
	}
}

func spanNames(spans []*Span) []string {
	names := make([]string, len(spans))
	for i, s := range spans {
		names[i] = s.Name
	}
	return names
}

// TestObservabilityLegacyStatsShims proves the pre-registry accessors
// still work against the shared registry, so code written against the
// old Stats structs keeps reading true numbers.
func TestObservabilityLegacyStatsShims(t *testing.T) {
	st := startObsStack(t)
	fs := st.vol.FS()
	if err := fs.MkdirAll("/d"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/d/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	encl := st.client.Enclave()
	stats := encl.Stats()
	if stats.MetadataFlushes == 0 {
		t.Error("legacy enclave Stats().MetadataFlushes = 0 after a write")
	}
	if encl.SGX().EcallCount() == 0 {
		t.Error("legacy SGX EcallCount() = 0 after a write")
	}
	if n, _ := st.afs.Stats(); n == 0 {
		t.Error("legacy afs Stats() rpcs = 0 after a write")
	}
	// The shims and the registry must agree: they are one source.
	if got := st.reg.CounterValue("sgx_ecalls_total"); got != encl.SGX().EcallCount() {
		t.Errorf("sgx_ecalls_total %d != EcallCount() %d", got, encl.SGX().EcallCount())
	}
}

// afsSpanNames lists the afs.* spans beneath s in the order they ran,
// without the "afs." prefix.
func afsSpanNames(s *Span) []string {
	var names []string
	for _, c := range s.Children {
		if op, ok := strings.CutPrefix(c.Name, "afs."); ok {
			names = append(names, op)
		}
		names = append(names, afsSpanNames(c)...)
	}
	return names
}

// framesMatch reports whether the AFS frames got are want, or want plus a
// second store directly before the last one — the freshness root's —
// which is an epoch that also writes the tree checkpoint (DESIGN.md
// §15.3), and whether they were the latter.
func framesMatch(got, want []string) (ok, checkpoint bool) {
	last := len(want) - 1
	for last >= 0 && want[last] != "store" {
		last--
	}
	if last >= 0 && slices.Equal(got, slices.Insert(slices.Clone(want), last, "store")) {
		return true, true
	}
	return slices.Equal(got, want), false
}

// TestObservabilityRPCBudget pins the exact, ordered AFS frames of the
// metadata op classes (DESIGN.md §11.5). Every frame is a LAN round trip
// (a one-way unlock: half of one), so a frame added here is a latency
// regression on every such op: the test fails until the table and the
// reason are updated together.
func TestObservabilityRPCBudget(t *testing.T) {
	st := startObsStack(t)
	fs := st.vol.FS()
	if err := fs.MkdirAll("/docs"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/docs/first", []byte("warms every cache on the path")); err != nil {
		t.Fatal(err)
	}
	tracer := st.reg.Tracer()
	tracer.Enable()
	defer tracer.Disable()

	// budget runs op and compares its AFS frames with want: those under
	// the first root span named rootName, or under every root span when
	// rootName is empty (a sequence of ops). One more sequence is allowed:
	// want plus a second store directly before the last one — the freshness
	// root's — which is an epoch that also writes the tree checkpoint
	// (DESIGN.md §15.3). It reports whether this was one.
	budget := func(what, rootName string, want []string, op func()) (checkpoint bool) {
		t.Helper()
		tracer.Take()
		op()
		spans := tracer.Take()
		var got []string
		if rootName == "" {
			for _, root := range spans {
				got = append(got, afsSpanNames(root)...)
			}
		} else {
			root := findSpan(spans, rootName)
			if root == nil {
				t.Fatalf("%s: no %s root span; roots: %v", what, rootName, spanNames(spans))
			}
			got = afsSpanNames(root)
		}
		ok, checkpoint := framesMatch(got, want)
		if !ok {
			t.Errorf("%s: afs frames under %s\n got %v\nwant %v", what, rootName, got, want)
		}
		return checkpoint
	}
	// transitions runs op and compares the enclave crossings it cost with
	// want: ecalls, then ocalls (DESIGN.md §11.5, last row).
	transitions := func(what string, want [2]int64, op func()) {
		t.Helper()
		d := counterDelta(st.reg, []string{"sgx_ecalls_total", "sgx_ocalls_total"}, op)
		if got := [2]int64{d["sgx_ecalls_total"], d["sgx_ocalls_total"]}; got != want {
			t.Errorf("%s: (ecalls, ocalls) = %v, want %v", what, got, want)
		}
	}
	coldRead := func(what, path string, want []byte, frames []string, crossings [2]int64) {
		t.Helper()
		st.client.Enclave().DropCaches()
		st.afs.FlushCache()
		budget(what, "vfs.read", frames, func() {
			transitions(what, crossings, func() {
				got, err := fs.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatal("read returned different bytes")
				}
			})
		})
	}

	// recall makes the next commit a first grant: a second client asks
	// for the freshness root's lock, which this client keeps after every
	// commit, and the server recalls it. That client keeps the lock in
	// turn, until this client's next commit recalls it back.
	peer, err := afs.Dial(st.addr, afs.ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	recall := func() {
		t.Helper()
		release, err := peer.Lock(freshtree.RootObjectName)
		if err != nil {
			t.Fatal(err)
		}
		release()
	}

	// A file of at most metadata.MaxInlineSize bytes is one object.
	data := bytes.Repeat([]byte{0x5A}, 2048)
	// Create one such file in an existing directory: one commit under the
	// freshness root's lock — the new filenode, content sealed inside, the
	// directory (one object, ACL and entries together), then the root
	// (sealed commitment and tree delta in one object). The lock is kept
	// from the previous commit, so it costs no frame, and nothing unlocks
	// it (DESIGN.md §9.2). The commit makes no fetch: the root and the
	// directory this client caches are current, because every peer store
	// broke its promise before returning. Enclave crossings: 1 ecall —
	// create, write and drain together — and 4 ocalls: the walk's two
	// directory fetches, served by the AFS cache; the root lock, the root
	// re-read, the directory re-read and its proof; the filenode and
	// directory puts with the freshness batch; the root put with the
	// release (DESIGN.md §11.5).
	create := []string{"store", "store", "store"}
	// After a peer took the lock, the commit's grant is a lock frame,
	// whose reply revalidates the root; the release keeps the lock.
	createFirst := []string{"lock", "store", "store", "store"}
	recall()
	budget("create in an existing directory, first grant", "vfs.write", createFirst, func() {
		transitions("create, first grant", [2]int64{1, 4}, func() {
			if err := fs.WriteFile("/docs/second", data); err != nil {
				t.Fatal(err)
			}
		})
	})
	budget("create in an existing directory", "vfs.write", create, func() {
		transitions("create", [2]int64{1, 4}, func() {
			if err := fs.WriteFile("/docs/third", data); err != nil {
				t.Fatal(err)
			}
		})
	})
	// A larger file adds its data object, stored before the filenode and
	// the commit's lock: one frame more, in the commit's first exit, so no
	// ocall more.
	big := ChunkedFile(0xA5)
	recall()
	budget("create of a chunked file, first grant", "vfs.write", append([]string{"store"}, createFirst...), func() {
		transitions("create of a chunked file, first grant", [2]int64{1, 4}, func() {
			if err := fs.WriteFile("/docs/big0", big); err != nil {
				t.Fatal(err)
			}
		})
	})
	budget("create of a chunked file", "vfs.write", append([]string{"store"}, create...), func() {
		transitions("create of a chunked file", [2]int64{1, 4}, func() {
			if err := fs.WriteFile("/docs/big", big); err != nil {
				t.Fatal(err)
			}
		})
	})
	// A 4 KiB file, as local_mixed's small files are, is below the cap:
	// one object, created and read cold as the 2 KiB file is.
	budget("create of a 4 KiB file", "vfs.write", create, func() {
		transitions("create of a 4 KiB file", [2]int64{1, 4}, func() {
			if err := fs.WriteFile("/docs/small", InlineFile(0x3C)); err != nil {
				t.Fatal(err)
			}
		})
	})

	// Cold read (enclave and AFS caches dropped): the three metadata
	// objects on the path — root dirnode, /docs dirnode, the filenode,
	// which holds the content — and, for the chunked file, the data object.
	// One ecall; an ocall per fetch and per proof of a metadata object.
	coldRead("cold read", "/docs/second", data, []string{"fetch", "fetch", "fetch"}, [2]int64{1, 6})
	coldRead("cold read of a 4 KiB file", "/docs/small", InlineFile(0x3C), []string{"fetch", "fetch", "fetch"}, [2]int64{1, 6})
	coldRead("cold read of a chunked file", "/docs/big", big, []string{"fetch", "fetch", "fetch", "fetch"}, [2]int64{1, 7})
	// Warm, the same read is no frame and no ocall: the cold read left a
	// hint outside the enclave, so the walk's reads — the data object,
	// named by the cached filenode, among them — are made before the ecall.
	budget("warm read of a chunked file", "vfs.read", nil, func() {
		transitions("warm read of a chunked file", [2]int64{1, 0}, func() {
			if got, err := fs.ReadFile("/docs/big"); err != nil || !bytes.Equal(got, big) {
				t.Fatalf("warm read = %d bytes, %v", len(got), err)
			}
		})
	})

	// readdir + stat of n entries (vfs.ReadDir, then vfs.Stat of each, one
	// ecall apiece): cold, the three directories on the path and then each
	// filenode, 3 + n fetches; warm, nothing — every fetch is an AFS hit.
	// Ocalls: cold, a fetch and a proof per directory for the listing, then
	// per Stat one ocall for the three directory fetches (AFS hits,
	// enclave-cache hits) and the filenode's fetch, and one for its proof;
	// warm, no ocall — every walk's fetches are made before its ecall, from
	// the hint the cold walk of the same path left (DESIGN.md §11.5).
	const n = 4
	if err := fs.MkdirAll("/docs/list"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := fs.WriteFile(fmt.Sprintf("/docs/list/f%d", i), data); err != nil {
			t.Fatal(err)
		}
	}
	readdirStat := func() {
		entries, err := fs.ReadDir("/docs/list")
		if err != nil || len(entries) != n {
			t.Fatalf("ReadDir(/docs/list) = %d entries, %v", len(entries), err)
		}
		for _, entry := range entries {
			if info, err := fs.Stat("/docs/list/" + entry.Name); err != nil || info.Size != uint64(len(data)) {
				t.Fatalf("Stat(%s) = %+v, %v", entry.Name, info, err)
			}
		}
	}
	st.client.Enclave().DropCaches()
	st.afs.FlushCache()
	budget("readdir + stat, cold", "", []string{"fetch", "fetch", "fetch", "fetch", "fetch", "fetch", "fetch"}, func() {
		transitions("readdir + stat, cold", [2]int64{1 + n, 6 + 2*n}, readdirStat)
	})
	budget("readdir + stat, warm", "", nil, func() {
		transitions("readdir + stat, warm", [2]int64{1 + n, 0}, readdirStat)
	})

	// The ACL, rename and user rows go straight to the enclave, so their
	// root span is the one ecall.
	bob, err := NewIdentity("bob")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.vol.AddUser("bob", bob.PublicKey); err != nil {
		t.Fatal(err)
	}
	group, err := st.vol.UserGroup("bob")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.vol.SetACL("/docs", "bob", ReadWrite); err != nil {
		t.Fatal(err)
	}

	// Each commit below is pinned twice: as a first grant, after a peer's
	// request recalled the root's lock (a lock frame first), and warm, with
	// the lock kept (no lock frame). Neither unlocks.
	commit2First, commit2 := []string{"lock", "store", "store"}, []string{"store", "store"}
	pair := func(what string, first, warm []string, opFirst, opWarm func()) {
		t.Helper()
		recall()
		budget(what+", first grant", "sgx.ecall", first, opFirst)
		budget(what, "sgx.ecall", warm, opWarm)
	}
	setACL := func(rights Rights) func() {
		return func() {
			if err := st.vol.SetACL("/docs", "bob", rights); err != nil {
				t.Fatal(err)
			}
		}
	}
	setGroupACL := func(rights Rights) func() {
		return func() {
			if err := st.vol.SetGroupACL("/docs", group, rights); err != nil {
				t.Fatal(err)
			}
		}
	}
	rename := func(from, to string) func() {
		return func() {
			if err := fs.Rename(from, to); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Revocation, the paper's whole cost (§VII-E): one directory re-seal
	// and the freshness root, in one commit. A grant only widens access:
	// it is the directory's put alone, and its leaf waits for the next
	// commit that puts the root (DESIGN.md §15.2).
	grantFirst, grant1 := []string{"lock", "store"}, []string{"store"}
	pair("SetACL (revoke)", commit2First, commit2, setACL(ReadOnly), setACL(NoRights))
	pair("SetACL (grant)", grantFirst, grant1, setACL(ReadOnly), setACL(ReadWrite))
	pair("SetGroupACL (grant)", grantFirst, grant1, setGroupACL(ReadOnly), setGroupACL(ReadWrite))
	pair("SetGroupACL (revoke)", commit2First, commit2, setGroupACL(ReadOnly), setGroupACL(NoRights))

	// Same-directory rename: the directory and the root, one commit.
	pair("rename within a directory", commit2First, commit2,
		rename("/docs/second", "/docs/renamed"), rename("/docs/third", "/docs/renamed3"))

	// Rename of a directory across directories: the re-parented child
	// dirnode, the source and the destination directory and the root, one
	// commit.
	for _, dir := range []string{"/other", "/docs/sub", "/docs/sub2"} {
		if err := fs.MkdirAll(dir); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	pair("rename of a directory across directories",
		[]string{"lock", "store", "store", "store", "store"},
		[]string{"store", "store", "store", "store"},
		rename("/docs/sub", "/other/sub"), rename("/docs/sub2", "/other/sub2"))
	// A file moved across directories is re-parented too, and a filenode
	// is rewritten only under its own lock, which is taken before the
	// root's and released after it. Each file's filenode is locked for the
	// first time, so its grant is always a frame.
	pair("rename of a file across directories",
		[]string{"lock", "lock", "store", "store", "store", "store"},
		[]string{"lock", "store", "store", "store", "store"},
		rename("/docs/renamed", "/other/moved"), rename("/docs/renamed3", "/other/moved3"))

	// Revoking a user: the supernode (user table and rotated key-tree
	// path) and the root, one commit.
	dave, err := NewIdentity("dave")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.vol.AddUser("dave", dave.PublicKey); err != nil {
		t.Fatal(err)
	}
	removeUser := func(name string) func() {
		return func() {
			if err := st.vol.RemoveUser(name); err != nil {
				t.Fatal(err)
			}
		}
	}
	pair("RemoveUser", commit2First, commit2, removeUser("bob"), removeUser("dave"))
	// Admitting one through the rootkey exchange: the same commit, though
	// it only widens access — it hands out the next member ID, so its leaf
	// cannot wait (the quote check is an ocall to the attestation service,
	// not a frame).
	grant := func(name string) func() {
		t.Helper()
		newcomerClient, err := NewClient(ClientConfig{Store: NewMemoryStore(), IAS: st.ias})
		if err != nil {
			t.Fatal(err)
		}
		newcomer, err := NewIdentity(name)
		if err != nil {
			t.Fatal(err)
		}
		offer, err := newcomerClient.CreateShareOffer(newcomer)
		if err != nil {
			t.Fatal(err)
		}
		return func() {
			if _, err := st.vol.GrantAccess(offer, name, newcomer.PublicKey, st.owner); err != nil {
				t.Fatal(err)
			}
		}
	}
	pair("GrantAccess", commit2First, commit2, grant("carol"), grant("erin"))

	// The checkpoint is the one frame the table above amortises. Its rule
	// is a function of leaf and delta-entry counts alone, so the count is
	// exact per op sequence; what is pinned is the bound: 64 creates grow
	// this tree from a dozen leaves to about 140 at four changed leaves a
	// drain, and √(2·S·u) at those sizes comes to a checkpoint every 3 to 9
	// drains.
	// Every one of them is the create sequence above: a directory that
	// fits bucket 0 retires nothing, so no `remove` ever rides along.
	checkpoints := 0
	for i := 0; i < 64; i++ {
		name := fmt.Sprintf("/docs/more-%02d", i)
		if budget("create "+name, "vfs.write", create, func() {
			if err := fs.WriteFile(name, data); err != nil {
				t.Fatal(err)
			}
		}) {
			checkpoints++
		}
	}
	if checkpoints == 0 || checkpoints > 16 {
		t.Errorf("64 creates stored the freshness checkpoint %d times, want between 1 and 16", checkpoints)
	}

	// Overwrite after a remove: a durable overwrite of a file the store
	// holds, made while a remove waits in the dirty set, is one commit
	// with the drain. The filenode's store, then under the root's kept
	// lock the directory's and the root's: 3 exchanges, where a commit of
	// the filenode and then a drain were 4. The filenode's lock is kept
	// from the overwrite before, so it costs no frame either. Above the
	// inline cap the data object's store comes first. The removed entry is
	// a symlink, so the drain deletes no object. Neither write is a
	// checkpoint epoch, which would look like the second commit's root.
	for _, c := range []struct {
		what    string
		content []byte
		want    []string
	}{
		{"overwrite after a remove", data, []string{"store", "store", "store"}},
		{"overwrite of a 4 KiB file after a remove", InlineFile(0x3C), []string{"store", "store", "store"}},
		{"overwrite of a chunked file after a remove", big, []string{"store", "store", "store", "store"}},
	} {
		p := "/docs/ow-" + strconv.Itoa(len(c.content))
		for i := 0; i < 2; i++ { // the second write takes the filenode's lock
			if err := fs.WriteFile(p, c.content); err != nil {
				t.Fatal(err)
			}
		}
		if err := fs.Symlink(p, p+"-link"); err != nil {
			t.Fatal(err)
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := fs.Remove(p + "-link"); err != nil {
			t.Fatal(err)
		}
		if budget(c.what, "vfs.write", c.want, func() {
			if err := fs.WriteFile(p, c.content); err != nil {
				t.Fatal(err)
			}
		}) {
			t.Errorf("%s: %d frames, one more than the commit's", c.what, len(c.want)+1)
		}
	}
}

// writeHookConn calls onWrite before each Write.
type writeHookConn struct {
	net.Conn
	onWrite func()
}

func (c *writeHookConn) Write(b []byte) (int, error) {
	c.onWrite()
	return c.Conn.Write(b)
}

// A recall that finds the freshness root's lock in use is answered busy:
// the commit goes on, and its release unlocks the lock instead of keeping
// it — a one-way unlock after the commit's stores, behind a lock frame
// when the grant was one (DESIGN.md §11.5). A peer asks for the lock
// while a create is between its grant and its directory store.
func TestObservabilityRPCBudgetBusyRecall(t *testing.T) {
	var st *obsStack
	var armed atomic.Bool
	var grantsWhenArmed int64
	grants := func() int64 {
		return st.reg.CounterValue("afs_lock_revalidations_unchanged_total") +
			st.reg.CounterValue("afs_lock_revalidations_absent_total") +
			st.reg.CounterValue("afs_lock_revalidations_data_total") +
			st.reg.CounterValue("afs_lock_local_grants_total")
	}
	var peer *afs.Client
	peerDone := make(chan error, 1)
	// recallMidCommit runs before the first write the client makes after
	// the armed commit's grant: a peer asks for the lock, and the write
	// waits until the client has answered the recall busy.
	recallMidCommit := func() {
		if !armed.Load() || grants() == grantsWhenArmed {
			return
		}
		armed.Store(false)
		busy := st.reg.CounterValue("afs_lock_recalls_busy_total")
		go func() {
			release, err := peer.Lock(freshtree.RootObjectName)
			if err == nil {
				release()
			}
			peerDone <- err
		}()
		for deadline := time.Now().Add(5 * time.Second); st.reg.CounterValue("afs_lock_recalls_busy_total") == busy; {
			if time.Now().After(deadline) {
				t.Error("the recall of the freshness root's lock was never answered busy")
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
	dials := 0
	st = startObsStackWith(t, afs.ClientConfig{
		Dial: func(addr string) (net.Conn, error) {
			conn, err := net.Dial("tcp", addr)
			if dials++; err != nil || dials != 1 {
				return conn, err // the callback channel answers recalls unhooked
			}
			return &writeHookConn{Conn: conn, onWrite: recallMidCommit}, nil
		},
	})
	peer, err := afs.Dial(st.addr, afs.ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	fs := st.vol.FS()
	if err := fs.MkdirAll("/docs"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/docs/first", []byte("warms every cache on the path")); err != nil {
		t.Fatal(err)
	}
	tracer := st.reg.Tracer()
	tracer.Enable()
	defer tracer.Disable()
	budget := func(what string, want []string, op func()) {
		t.Helper()
		tracer.Take()
		op()
		root := findSpan(tracer.Take(), "vfs.write")
		if root == nil {
			t.Fatalf("%s: no vfs.write root span", what)
		}
		got := afsSpanNames(root)
		if ok, _ := framesMatch(got, want); !ok {
			t.Errorf("%s: afs frames under vfs.write\n got %v\nwant %v", what, got, want)
		}
	}
	data := bytes.Repeat([]byte{0x5A}, 2048)
	for i, step := range []struct {
		what     string
		recalled bool
		want     []string
	}{
		// The peer took the lock at the last busy recall (or, first, here
		// through a plain recall), so the grant is a lock frame.
		{"first grant, recalled busy", true, []string{"lock", "store", "store", "store", "unlock"}},
		{"first grant after the peer's", false, []string{"lock", "store", "store", "store"}},
		{"local grant, recalled busy", true, []string{"store", "store", "store", "unlock"}},
		{"first grant after the peer's, again", false, []string{"lock", "store", "store", "store"}},
	} {
		if i == 0 {
			release, err := peer.Lock(freshtree.RootObjectName)
			if err != nil {
				t.Fatal(err)
			}
			release()
		}
		grantsWhenArmed = grants()
		armed.Store(step.recalled)
		budget(step.what, step.want, func() {
			if err := fs.WriteFile(fmt.Sprintf("/docs/f%d", i), data); err != nil {
				t.Fatal(err)
			}
		})
		if step.recalled {
			if err := <-peerDone; err != nil {
				t.Fatalf("%s: the peer's lock: %v", step.what, err)
			}
		}
	}
	for name, want := range map[string]int64{
		"afs_lock_recalls_busy_total": 2,
		"afs_oneway_frames_total":     2,
	} {
		if got := st.reg.CounterValue(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}
