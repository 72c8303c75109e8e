//go:build !race

package nexus_test

import (
	"bytes"
	"fmt"
	"testing"

	"nexus"
)

// TestAllocsPerOpClass pins the heap allocations of each op class of
// TestStoreCallsPerOpClass on the local adapter with every cache warm:
// what a user op costs the garbage collector, from the facade through the
// enclave to the adapter. Each budget is the measured value plus a small
// margin; a change that raises one says so, as it would for a store
// count. The files are 4 KiB, above metadata.MaxInlineSize, as
// local_mixed's small files are.
func TestAllocsPerOpClass(t *testing.T) {
	ias, err := nexus.NewAttestationService()
	if err != nil {
		t.Fatal(err)
	}
	client, err := nexus.NewClient(nexus.ClientConfig{Store: nexus.NewMemoryStore(), IAS: ias})
	if err != nil {
		t.Fatal(err)
	}
	owner, err := nexus.NewIdentity("owen")
	if err != nil {
		t.Fatal(err)
	}
	vol, _, err := client.CreateVolume(owner)
	if err != nil {
		t.Fatal(err)
	}
	fs := vol.FS()
	content := bytes.Repeat([]byte{'x'}, 4<<10)
	const runs = 10
	// Every op that makes a name gets its own, made up front: AllocsPerRun
	// calls the op once more than runs to warm up.
	names := func(format string) []string {
		out := make([]string, runs+1)
		for i := range out {
			out[i] = fmt.Sprintf(format, i)
		}
		return out
	}
	created, removed, synced, made := names("/a/c%02d"), names("/r/f%02d"), names("/s/f%02d"), names("/m/d%02d")
	for _, dir := range []string{"/a", "/b", "/r", "/s", "/m"} {
		if err := fs.MkdirAll(dir); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range append(append([]string{"/a/f", "/a/h"}, removed...), synced...) {
		if err := fs.WriteFile(p, content); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.ReadFile(p); err != nil { // warms the filenode
			t.Fatal(err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}

	next := func(list []string) func() string {
		i := 0
		return func() string { i++; return list[i-1] }
	}
	nextCreated, nextRemoved, nextSynced, nextMade := next(created), next(removed), next(synced), next(made)
	renamed := false
	rows := []struct {
		class  string
		budget float64
		op     func() error
	}{
		{"warm stat", 16, func() error { _, err := fs.Stat("/a/f"); return err }},
		{"warm read", 28, func() error { _, err := fs.ReadFile("/a/f"); return err }},
		{"overwrite", 165, func() error { return fs.WriteFile("/a/f", content) }},
		{"create", 260, func() error { return fs.WriteFile(nextCreated(), content) }},
		{"rename across directories", 310, func() error {
			renamed = !renamed
			if renamed {
				return fs.Rename("/a/h", "/b/h")
			}
			return fs.Rename("/b/h", "/a/h")
		}},
		{"remove", 32, func() error { return fs.Remove(nextRemoved()) }},
		{"mkdir", 24, func() error { return fs.Mkdir(nextMade()) }},
		{"remove, then sync", 222, func() error {
			if err := fs.Remove(nextSynced()); err != nil {
				return err
			}
			return fs.Sync()
		}},
	}
	for _, row := range rows {
		var opErr error
		allocs := testing.AllocsPerRun(runs, func() {
			if err := row.op(); err != nil && opErr == nil {
				opErr = err
			}
		})
		if opErr != nil {
			t.Fatalf("%s: %v", row.class, opErr)
		}
		t.Logf("%s: %.1f allocations", row.class, allocs)
		if allocs > row.budget {
			t.Errorf("%s made %.1f allocations per op, budget %.0f", row.class, allocs, row.budget)
		}
	}
}
