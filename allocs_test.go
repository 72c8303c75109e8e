//go:build !race

package nexus_test

import (
	"fmt"
	"testing"

	"nexus"
)

// TestAllocsPerOpClass pins the heap allocations of each op class of
// TestStoreCallsPerOpClass on the local adapter with every cache warm:
// what a user op costs the garbage collector, from the facade through the
// enclave to the adapter. Each budget is the measured value plus a small
// margin; a change that raises one says so, as it would for a store
// count. Each class runs on a chunked file, just above
// metadata.MaxInlineSize, whose content is a data object; the classes
// that move content run on a 4 KiB file as well, one sealed filenode as
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
	chunked, inline := nexus.ChunkedFile('x'), nexus.InlineFile('y')
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
	createdInline, syncedInline := names("/a/i%02d"), names("/s/i%02d")
	for _, dir := range []string{"/a", "/b", "/r", "/s", "/m"} {
		if err := fs.MkdirAll(dir); err != nil {
			t.Fatal(err)
		}
	}
	for _, layout := range []struct {
		content []byte
		paths   []string
	}{
		{chunked, append(append([]string{"/a/f", "/a/h"}, removed...), synced...)},
		{inline, append([]string{"/a/g"}, syncedInline...)},
	} {
		for _, p := range layout.paths {
			if err := fs.WriteFile(p, layout.content); err != nil {
				t.Fatal(err)
			}
			if _, err := fs.ReadFile(p); err != nil { // warms the filenode
				t.Fatal(err)
			}
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
	nextCreatedInline, nextSyncedInline := next(createdInline), next(syncedInline)
	renamed := false
	rows := []struct {
		class  string
		budget float64
		op     func() error
	}{
		{"warm stat", 16, func() error { _, err := fs.Stat("/a/f"); return err }},
		{"warm read", 28, func() error { _, err := fs.ReadFile("/a/f"); return err }},
		{"warm read of a 4 KiB file", 18, func() error { _, err := fs.ReadFile("/a/g"); return err }},
		{"overwrite", 165, func() error { return fs.WriteFile("/a/f", chunked) }},
		{"overwrite of a 4 KiB file", 151, func() error { return fs.WriteFile("/a/g", inline) }},
		{"create", 260, func() error { return fs.WriteFile(nextCreated(), chunked) }},
		{"create of a 4 KiB file", 246, func() error { return fs.WriteFile(nextCreatedInline(), inline) }},
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
		{"remove of a 4 KiB file, then sync", 215, func() error {
			if err := fs.Remove(nextSyncedInline()); err != nil {
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
