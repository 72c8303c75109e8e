package nexus

import (
	"bytes"
	"fmt"
	"net"
	"slices"
	"strings"
	"testing"

	"nexus/internal/afs"
	"nexus/internal/backend"
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
}

func startObsStack(t *testing.T) *obsStack {
	t.Helper()
	srv := afs.NewServer(backend.NewMemStore())
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	t.Cleanup(func() { _ = srv.Close() })

	reg := NewObs()
	afsClient, err := afs.Dial(l.Addr().String(), afs.ClientConfig{Obs: reg})
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
		// Small chunks so a small file spans an exact, assertable number
		// of crypto chunks: 4096 bytes / 1024 = 4.
		ChunkSize: 1024,
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
	return &obsStack{reg: reg, client: client, vol: vol, afs: afsClient, owner: owner, ias: ias}
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

	data := bytes.Repeat([]byte{0xA5}, 4096) // exactly 4 chunks of 1024

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
	// 4096 bytes at ChunkSize 1024: exactly 4 chunks encrypted, none
	// decrypted.
	if wDelta["enclave_chunk_crypto_chunks_total"] != 4 {
		t.Errorf("write: chunk crypto chunks moved %d, want 4", wDelta["enclave_chunk_crypto_chunks_total"])
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
	} else if chunks, ok := tagValue(findSpan(wSpans, "enclave.chunkcrypto"), "chunks"); !ok || chunks != "4" {
		t.Errorf("chunkcrypto span chunks tag = %q, want \"4\"", chunks)
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
	// The same 4 chunks come back through the decrypt path.
	if rDelta["enclave_chunk_crypto_chunks_total"] != 4 {
		t.Errorf("read: chunk crypto chunks moved %d, want 4", rDelta["enclave_chunk_crypto_chunks_total"])
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
	encl.ResetStats()
	if encl.SGX().EcallCount() != 0 || st.reg.CounterValue("sgx_ecalls_total") != 0 {
		t.Error("ResetStats did not clear the registry-backed counters")
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
		last := len(want) - 1
		for last >= 0 && want[last] != "store" {
			last--
		}
		if last >= 0 && slices.Equal(got, slices.Insert(slices.Clone(want), last, "store")) {
			return true
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: afs frames under %s\n got %v\nwant %v", what, rootName, got, want)
		}
		return false
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

	// A file of at most metadata.MaxInlineSize bytes is one object.
	data := bytes.Repeat([]byte{0x5A}, 2048)
	// Create one such file in an existing directory: the new filenode,
	// content sealed inside, unlocked, then one commit under the freshness
	// root's lock — the directory (one object, ACL and entries together),
	// then the root (sealed commitment and tree delta in one object), one
	// unlock. The lock is followed by no fetch: its reply revalidated the
	// root, and the directory this client caches is current because a lock
	// grant is a release-consistency point. Enclave crossings: 4 ecalls —
	// the write that finds no file, Touch, the write, the drain — and 13
	// ocalls: 2 + 2 + 1 directory fetches served by the AFS cache (the last
	// write's directory is its dirty copy), then the drain's filenode put,
	// root lock, root re-read, directory re-read and its proof, directory
	// put, freshness batch and root put.
	create := []string{
		"store",
		"lock", "store", "store", "unlock",
	}
	budget("create in an existing directory", "vfs.write", create, func() {
		transitions("create", [2]int64{4, 13}, func() {
			if err := fs.WriteFile("/docs/second", data); err != nil {
				t.Fatal(err)
			}
		})
	})
	// A larger file adds its data object, stored before the filenode: one
	// frame and one ocall more.
	big := bytes.Repeat([]byte{0xA5}, 8192)
	budget("create of a chunked file", "vfs.write", append([]string{"store"}, create...), func() {
		transitions("create of a chunked file", [2]int64{4, 14}, func() {
			if err := fs.WriteFile("/docs/big", big); err != nil {
				t.Fatal(err)
			}
		})
	})

	// Cold read (enclave and AFS caches dropped): the three metadata
	// objects on the path — root dirnode, /docs dirnode, the filenode,
	// which holds the content — and, for the chunked file, the data object.
	// One ecall; an ocall per fetch and per proof of a metadata object.
	coldRead("cold read", "/docs/second", data, []string{"fetch", "fetch", "fetch"}, [2]int64{1, 6})
	coldRead("cold read of a chunked file", "/docs/big", big, []string{"fetch", "fetch", "fetch", "fetch"}, [2]int64{1, 7})

	// readdir + stat of n entries (vfs.ReadDir, then vfs.Stat of each, one
	// ecall apiece): cold, the three directories on the path and then each
	// filenode, 3 + n fetches; warm, nothing — every fetch is an AFS hit.
	// Ocalls: cold, a fetch and a proof per directory for the listing, then
	// per Stat one ocall for the three directory fetches (AFS hits,
	// enclave-cache hits) and the filenode's fetch, and one for its proof;
	// warm, one ocall per ecall — every fetch of a walk leaves the enclave
	// together (DESIGN.md §11.5).
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
		transitions("readdir + stat, warm", [2]int64{1 + n, 1 + n}, readdirStat)
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

	// Revocation, the paper's whole cost (§VII-E): one directory re-seal
	// and the freshness root, in one commit.
	commit2 := []string{"lock", "store", "store", "unlock"}
	budget("SetACL (revoke)", "sgx.ecall", commit2, func() {
		if err := st.vol.SetACL("/docs", "bob", NoRights); err != nil {
			t.Fatal(err)
		}
	})
	budget("SetGroupACL", "sgx.ecall", commit2, func() {
		if err := st.vol.SetGroupACL("/docs", group, ReadOnly); err != nil {
			t.Fatal(err)
		}
	})

	// Same-directory rename: the directory and the root, one commit.
	budget("rename within a directory", "sgx.ecall", commit2, func() {
		if err := fs.Rename("/docs/second", "/docs/renamed"); err != nil {
			t.Fatal(err)
		}
	})

	// Rename of a directory across directories: the re-parented child
	// dirnode, the source and the destination directory and the root, one
	// commit.
	if err := fs.MkdirAll("/other"); err != nil {
		t.Fatal(err)
	}
	if err := fs.MkdirAll("/docs/sub"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	budget("rename of a directory across directories", "sgx.ecall", []string{
		"lock", "store", "store", "store", "store", "unlock",
	}, func() {
		if err := fs.Rename("/docs/sub", "/other/sub"); err != nil {
			t.Fatal(err)
		}
	})
	// A file moved across directories is re-parented too, and a filenode
	// is rewritten only under its own lock, which is taken before the
	// root's and released after it.
	budget("rename of a file across directories", "sgx.ecall", []string{
		"lock", "lock", "store", "store", "store", "store", "unlock", "unlock",
	}, func() {
		if err := fs.Rename("/docs/renamed", "/other/moved"); err != nil {
			t.Fatal(err)
		}
	})

	// Revoking a user: the supernode (user table and rotated key-tree
	// path) and the root, one commit.
	budget("RemoveUser", "sgx.ecall", commit2, func() {
		if err := st.vol.RemoveUser("bob"); err != nil {
			t.Fatal(err)
		}
	})
	// Admitting one through the rootkey exchange: the same commit (the
	// quote check is an ocall to the attestation service, not a frame).
	carolClient, err := NewClient(ClientConfig{Store: NewMemoryStore(), IAS: st.ias})
	if err != nil {
		t.Fatal(err)
	}
	carol, err := NewIdentity("carol")
	if err != nil {
		t.Fatal(err)
	}
	offer, err := carolClient.CreateShareOffer(carol)
	if err != nil {
		t.Fatal(err)
	}
	budget("GrantAccess", "sgx.ecall", commit2, func() {
		if _, err := st.vol.GrantAccess(offer, "carol", carol.PublicKey, st.owner); err != nil {
			t.Fatal(err)
		}
	})

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
}
