package bench

import (
	"bytes"
	"strings"
	"testing"

	"nexus/internal/workload"
)

// tinyEnv builds a testbed with zero simulated latency and 1 run, so the
// smoke tests exercise every experiment path quickly.
func tinyEnv(t *testing.T) *Env {
	t.Helper()
	env, err := NewEnv(Config{
		Loopback: true,
		Runs:     1,
		Scale:    1 << 10, // shrink file sizes 1024x
	})
	if err != nil {
		t.Fatalf("NewEnv: %v", err)
	}
	t.Cleanup(env.Close)
	return env
}

func TestFileIOExperiment(t *testing.T) {
	env := tinyEnv(t)
	rows, err := FileIO(env, []int{1, 2})
	if err != nil {
		t.Fatalf("FileIO: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.OpenAFS <= 0 || r.Nexus <= 0 {
			t.Fatalf("non-positive latency: %+v", r)
		}
		if r.Enclave <= 0 {
			t.Fatalf("no enclave time recorded: %+v", r)
		}
		if r.MetadataIO+r.Enclave > r.Nexus {
			t.Fatalf("breakdown exceeds NEXUS's whole time: %+v", r)
		}
	}
	var out bytes.Buffer
	PrintFileIO(&out, rows)
	if !strings.Contains(out.String(), "NEXUS") || !strings.Contains(out.String(), "MetadataIO") {
		t.Fatalf("print output malformed:\n%s", out.String())
	}
}

func TestDirOpsExperiment(t *testing.T) {
	env := tinyEnv(t)
	rows, err := DirOps(env, []int{16, 32})
	if err != nil {
		t.Fatalf("DirOps: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The paper's shape: NEXUS metadata-heavy churn costs more than the
	// baseline.
	for _, r := range rows {
		if r.Nexus <= r.OpenAFS {
			t.Logf("note: nexus %v <= openafs %v at %d files (loopback)", r.Nexus, r.OpenAFS, r.NumFiles)
		}
		if r.MetadataIO <= 0 {
			t.Fatalf("no metadata I/O recorded: %+v", r)
		}
		if r.NexusSynced <= 0 {
			t.Fatalf("no synced NEXUS time recorded: %+v", r)
		}
		if r.MetadataIO+r.Enclave > r.Nexus {
			t.Fatalf("breakdown exceeds NEXUS's whole time: %+v", r)
		}
	}
	var out bytes.Buffer
	PrintDirOps(&out, rows)
	if !strings.Contains(out.String(), "directory operations") || !strings.Contains(out.String(), "Sync/op") {
		t.Fatal("print output malformed")
	}
}

func TestGitCloneExperiment(t *testing.T) {
	env := tinyEnv(t)
	tiny := workload.TreeSpec{
		Name: "tiny", NumFiles: 25, NumDirs: 6, MaxDepth: 3,
		MinFileSize: 64, MaxFileSize: 512, Seed: 5,
	}
	rows, err := GitClone(env, []workload.TreeSpec{tiny})
	if err != nil {
		t.Fatalf("GitClone: %v", err)
	}
	if len(rows) != 1 || rows[0].NumFiles != 25 {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].Overhead <= 0 {
		t.Fatalf("no overhead computed: %+v", rows[0])
	}
	if rows[0].OpenAFSRPCsPerFile <= 0 || rows[0].NexusRPCsPerFile <= 0 {
		t.Fatalf("no AFS RPCs counted: %+v", rows[0])
	}
	var out bytes.Buffer
	PrintGitClone(&out, rows)
	if !strings.Contains(out.String(), "tiny") {
		t.Fatal("print output malformed")
	}
}

func TestDatabaseExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("database experiment is slow")
	}
	env := tinyEnv(t)
	rows, err := Database(env, 300)
	if err != nil {
		t.Fatalf("Database: %v", err)
	}
	if len(rows) != 15 { // 8 LevelDB + 7 SQLite operations as in Table II
		t.Fatalf("rows = %d, want 15", len(rows))
	}
	names := map[string]bool{}
	for _, r := range rows {
		names[r.Engine+"/"+r.Operation] = true
		if r.OpenAFS <= 0 || r.Nexus <= 0 {
			t.Fatalf("non-positive rate: %+v", r)
		}
	}
	for _, want := range []string{
		"LevelDB/fillseq", "LevelDB/fillsync", "LevelDB/readrandom", "LevelDB/fill100K",
		"SQLITE/fillseqsync", "SQLITE/fillrandbatch", "SQLITE/overwrite",
	} {
		if !names[want] {
			t.Fatalf("missing operation %s", want)
		}
	}
	var out bytes.Buffer
	PrintDatabase(&out, rows)
	if !strings.Contains(out.String(), "LevelDB") || !strings.Contains(out.String(), "SQLITE") {
		t.Fatal("print output malformed")
	}
}

func TestLinuxAppsExperiment(t *testing.T) {
	env := tinyEnv(t)
	tiny := workload.FlatSpec{Name: "tiny", NumFiles: 12, FileSize: 4 << 10}
	rows, err := LinuxApps(env, []workload.FlatSpec{tiny})
	if err != nil {
		t.Fatalf("LinuxApps: %v", err)
	}
	if len(rows) != 6 { // tar-x du grep tar-c cp mv
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	seen := map[string]bool{}
	for _, r := range rows {
		seen[r.App] = true
	}
	for _, app := range []string{"tar-x", "du", "grep", "tar-c", "cp", "mv"} {
		if !seen[app] {
			t.Fatalf("missing app %s", app)
		}
	}
	var out bytes.Buffer
	PrintLinuxApps(&out, rows)
	if !strings.Contains(out.String(), "tar-x") {
		t.Fatal("print output malformed")
	}
}

func TestRevocationExperiment(t *testing.T) {
	env := tinyEnv(t)
	// 1 MiB nominal files scale down to 1 KiB under tinyEnv; the data
	// population still has to dwarf the constant metadata cost of a
	// revoke (one dirnode plus the default Merkle freshness root).
	spec := workload.FlatSpec{Name: "tiny-sfld", NumFiles: 32, FileSize: 1 << 20}
	rows, err := Revocation(env, []workload.FlatSpec{spec})
	if err != nil {
		t.Fatalf("Revocation: %v", err)
	}
	r := rows[0]
	// The headline claim: NEXUS revocation touches orders of magnitude
	// fewer bytes than the pure-crypto baseline.
	if r.NexusBytes <= 0 || r.CryptoBytes <= 0 {
		t.Fatalf("empty measurements: %+v", r)
	}
	if r.NexusBytes >= r.CryptoBytes {
		t.Fatalf("NEXUS revocation (%d bytes) not cheaper than crypto-fs (%d bytes)",
			r.NexusBytes, r.CryptoBytes)
	}
	// Baseline re-encrypted all data.
	if r.CryptoBytes != r.DataBytes {
		t.Fatalf("crypto-fs re-encrypted %d bytes of %d", r.CryptoBytes, r.DataBytes)
	}
	var out bytes.Buffer
	PrintRevocation(&out, rows)
	if !strings.Contains(out.String(), "Revocation") {
		t.Fatal("print output malformed")
	}
}

func TestAblationExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation builds five testbeds")
	}
	rows, err := Ablation(Config{Loopback: true, Runs: 1, Scale: 1 << 10}, 24)
	if err != nil {
		t.Fatalf("Ablation: %v", err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	if rows[0].RelativeToBase != 1.0 {
		t.Fatalf("baseline relative = %f", rows[0].RelativeToBase)
	}
	for i := range rows {
		if rows[i].Nexus <= 0 || rows[i].RelativeToBase <= 0 {
			t.Fatalf("unmeasured variant: %+v", rows[i])
		}
	}
	var out bytes.Buffer
	PrintAblation(&out, 24, rows)
	if !strings.Contains(out.String(), "Ablation") {
		t.Fatal("print output malformed")
	}
}

func TestSharingExperiment(t *testing.T) {
	env := tinyEnv(t)
	rows, err := Sharing(env)
	if err != nil {
		t.Fatalf("Sharing: %v", err)
	}
	ops := map[string]SharingRow{}
	for _, r := range rows {
		ops[r.Operation] = r
	}
	for _, want := range []string{"create offer (m1)", "grant access (m2)", "accept grant", "add user"} {
		if _, ok := ops[want]; !ok {
			t.Fatalf("missing operation %q in %v", want, rows)
		}
	}
	// The recipient's steps run over its own store. An admission is one
	// commit: the supernode's put and the root's (DESIGN.md §15.2), a lock
	// frame first when the owner's lease on the root's lock lapsed while
	// the recipient's client was built, and at times a checkpoint's put.
	for _, op := range []string{"create offer (m1)", "accept grant"} {
		if got := ops[op].RPCs; got != 0 {
			t.Errorf("%s: %d AFS exchanges with the owner's server, want 0", op, got)
		}
	}
	for _, op := range []string{"grant access (m2)", "add user"} {
		if got := ops[op].RPCs; got < 2 || got > 4 {
			t.Errorf("%s: %d AFS exchanges, want 2 to 4", op, got)
		}
	}
	var out bytes.Buffer
	PrintSharing(&out, rows)
	if !strings.Contains(out.String(), "Sharing costs") {
		t.Fatal("print output malformed")
	}
}
