package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nexus"
	"nexus/internal/enclave"
	"nexus/internal/freshtree"
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

// restoreStoreDir makes the directory store exactly snap again: what an
// attacker who kept a copy of the whole volume can do.
func restoreStoreDir(t *testing.T, dir string, snap map[string][]byte) {
	t.Helper()
	for name := range readStoreDir(t, dir) {
		if _, kept := snap[name]; !kept {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, data := range snap {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o600); err != nil {
			t.Fatal(err)
		}
	}
}

// recordedEpoch reads the epoch the last command left in volume.epoch.
func recordedEpoch(t *testing.T, home string) uint64 {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(home, "volume.epoch"))
	if err != nil {
		t.Fatal(err)
	}
	var epoch uint64
	var root string
	if _, err := fmt.Sscanf(string(data), "%d %s", &epoch, &root); err != nil || len(root) != 64 {
		t.Fatalf("volume.epoch holds %q (%v)", data, err)
	}
	return epoch
}

// TestVolumeSurvivesRestartAndRejectsRollback crosses the process
// boundary on a directory store: the sealed Merkle root with its delta
// trailer, and the freshness checkpoint once there is one, must carry a
// volume from one invocation to the next (PlatformSeed keeps the rootkey
// unsealable), and a store directory rolled back behind the client's
// back must fail closed — the metadata objects alone, or the whole
// volume, which only the epoch carried in volume.epoch can tell from an
// honest one.
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

	if _, err := os.Stat(filepath.Join(storeDir, enclave.MerkleRootObjectName)); err != nil {
		t.Fatalf("store directory lacks the sealed root after the first writes: %v", err)
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
	current, newest := readStoreDir(t, storeDir), recordedEpoch(t, home)
	rolledBack := 0
	for name, data := range old {
		if name == enclave.MerkleRootObjectName || name == freshtree.TreeObjectName {
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

	// The whole volume put back as it was — root, checkpoint and objects,
	// one epoch old, with no write in between: a self-consistent volume
	// that every proof vouches for. The store cannot show it is stale;
	// the epoch this machine recorded after its last command does.
	if _, err := os.Stat(filepath.Join(storeDir, freshtree.TreeObjectName)); err != nil {
		t.Fatalf("store directory has no freshness checkpoint after %d epochs: %v", recordedEpoch(t, home), err)
	}
	restoreStoreDir(t, storeDir, old)
	if _, err := process(t, home, "get", "/docs/x", fetched); !errors.Is(err, enclave.ErrStaleObject) {
		t.Fatalf("get after a whole-volume rollback = %v, want ErrStaleObject", err)
	}
	if got := recordedEpoch(t, home); got != newest {
		t.Fatalf("the rejected rollback moved volume.epoch from %d to %d", newest, got)
	}

	// The bound, not hidden: a machine with no record of the volume — this
	// one, once volume.epoch is deleted — has nothing to hold the store to,
	// and reads the old volume as any first-time client would (DESIGN.md
	// §15.2, fork consistency). The record then restarts from what it saw.
	if err := os.Remove(filepath.Join(home, "volume.epoch")); err != nil {
		t.Fatal(err)
	}
	mustProcess(t, home, "get", "/docs/x", fetched)
	if got, err := os.ReadFile(fetched); err != nil || string(got) != "first draft" {
		t.Fatalf("get with no epoch record = %q, %v; want the rolled-back contents", got, err)
	}
	if got := recordedEpoch(t, home); got != newest-1 {
		t.Fatalf("volume.epoch restarted at %d, want %d: the rollback was not exactly one epoch", got, newest-1)
	}

	// The honest store back in place reads as the newer volume it is.
	restoreStoreDir(t, storeDir, current)
	mustProcess(t, home, "get", "/docs/x", fetched)
	if got, err := os.ReadFile(fetched); err != nil || string(got) != "second draft" {
		t.Fatalf("get from the honest store = %q, %v", got, err)
	}
}
