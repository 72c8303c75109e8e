package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nexus"
	"nexus/internal/enclave"
	"nexus/internal/vfs"
)

// process runs one CLI command the way a separate `nexus` invocation
// would: a new cli value, a new store handle on the same directory, a
// new enclave. Only the files under home carry over. It returns what
// the command printed.
func process(t *testing.T, home string, args ...string) (string, error) {
	t.Helper()
	store, err := nexus.NewLocalStore(filepath.Join(home, "store"))
	if err != nil {
		t.Fatal(err)
	}
	c := &cli{home: home, store: store, obs: nexus.NewObs()}

	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	cmdErr := c.command(args[0], args[1:])
	os.Stdout = stdout

	printed, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(printed), cmdErr
}

func mustProcess(t *testing.T, home string, args ...string) string {
	t.Helper()
	out, err := process(t, home, args...)
	if err != nil {
		t.Fatalf("nexus %s: %v", strings.Join(args, " "), err)
	}
	return out
}

// readStoreDir snapshots every object file of the directory store.
func readStoreDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap := make(map[string][]byte)
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		snap[e.Name()] = data
	}
	return snap
}

// TestVolumeSurvivesRestartAndRejectsRollback crosses the process
// boundary on a directory store: the sealed Merkle root and the
// persisted freshness tree must carry a volume from one invocation to
// the next (PlatformSeed keeps the rootkey unsealable), and a store
// directory rolled back behind the client's back must fail closed.
func TestVolumeSurvivesRestartAndRejectsRollback(t *testing.T) {
	home := t.TempDir()
	storeDir := filepath.Join(home, "store")
	local := filepath.Join(t.TempDir(), "local")
	writeLocal := func(content string) {
		t.Helper()
		if err := os.WriteFile(local, []byte(content), 0o600); err != nil {
			t.Fatal(err)
		}
	}

	mustProcess(t, home, "keygen", "owen")
	mustProcess(t, home, "init")
	mustProcess(t, home, "mkdir", "/docs")
	writeLocal("first draft")
	mustProcess(t, home, "put", local, "/docs/x")

	for _, name := range []string{enclave.MerkleRootObjectName, vfs.FreshnessTreeObjectName} {
		if _, err := os.Stat(filepath.Join(storeDir, name)); err != nil {
			t.Fatalf("store directory lacks %q after the first writes: %v", name, err)
		}
	}

	// A new process reads back what the earlier ones wrote (and a
	// removed file's leaf leaves the tree without breaking its sibling's
	// proof).
	mustProcess(t, home, "put", local, "/docs/tmp")
	mustProcess(t, home, "rm", "/docs/tmp")
	if out := mustProcess(t, home, "ls", "/docs"); out != "- x\n" {
		t.Fatalf("ls /docs printed %q, want %q", out, "- x\n")
	}
	fetched := filepath.Join(t.TempDir(), "fetched")
	mustProcess(t, home, "get", "/docs/x", fetched)
	if got, err := os.ReadFile(fetched); err != nil || string(got) != "first draft" {
		t.Fatalf("get /docs/x = %q, %v", got, err)
	}

	// mkdir ends on no barrier of its own: the drain the command runs
	// before it returns is all that carries /only to the next process.
	mustProcess(t, home, "mkdir", "/only")
	if out := mustProcess(t, home, "ls", "/"); !strings.Contains(out, "d only\n") {
		t.Fatalf("ls / printed %q, want it to list the directory the previous process made", out)
	}

	// The attack: snapshot the store, let the owner overwrite the file,
	// then put the older metadata objects back.
	old := readStoreDir(t, storeDir)
	writeLocal("second draft")
	mustProcess(t, home, "put", local, "/docs/x")
	rolledBack := 0
	for name, data := range old {
		if name == enclave.MerkleRootObjectName || name == vfs.FreshnessTreeObjectName {
			continue
		}
		cur, err := os.ReadFile(filepath.Join(storeDir, name))
		if err != nil || bytes.Equal(cur, data) {
			continue
		}
		if err := os.WriteFile(filepath.Join(storeDir, name), data, 0o600); err != nil {
			t.Fatal(err)
		}
		rolledBack++
	}
	if rolledBack == 0 {
		t.Fatal("the overwrite changed no store object; nothing to roll back")
	}
	if _, err := process(t, home, "get", "/docs/x", fetched); !errors.Is(err, enclave.ErrStaleMetadata) {
		t.Fatalf("get after metadata rollback = %v, want ErrStaleMetadata", err)
	}

	// Rolling the sealed root back as well does not help once the
	// freshness tree has moved on: nothing proves the old commitment.
	// (One epoch back is still provable from the tree's undo log, and a
	// new process has no epoch memory — the fork-consistency bound of
	// DESIGN.md §15 — so the owner writes once more first.)
	writeLocal("third draft")
	mustProcess(t, home, "put", local, "/docs/y")
	if err := os.WriteFile(filepath.Join(storeDir, enclave.MerkleRootObjectName), old[enclave.MerkleRootObjectName], 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := process(t, home, "get", "/docs/x", fetched); !errors.Is(err, enclave.ErrBadProof) {
		t.Fatalf("get after root rollback = %v, want ErrBadProof", err)
	}
}
