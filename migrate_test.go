package nexus

import (
	"crypto/ed25519"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nexus/internal/metadata"
)

// openParentVolume copies testdata/volume-pr22 — a volume written by the
// commit before directories became single objects (every bucket, bucket
// 0 included, a separate store object; bucket size 8) — into a scratch
// directory and mounts it. The manifest carries what the writing process
// kept outside the store: platform seed, owner key seed, volume ID and
// sealed rootkey.
func openParentVolume(t *testing.T) (vol *Volume, storeDir string, remount func() *Volume) {
	t.Helper()
	src := filepath.Join("testdata", "volume-pr22")
	raw, err := os.ReadFile(filepath.Join(src, "manifest"))
	if err != nil {
		t.Fatal(err)
	}
	manifest := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		k, v, _ := strings.Cut(line, " ")
		manifest[k] = v
	}
	unhex := func(key string) []byte {
		b, err := hex.DecodeString(manifest[key])
		if err != nil || len(b) == 0 {
			t.Fatalf("manifest %s: %q, %v", key, manifest[key], err)
		}
		return b
	}
	storeDir = t.TempDir()
	objects, err := os.ReadDir(filepath.Join(src, "store"))
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range objects {
		b, err := os.ReadFile(filepath.Join(src, "store", o.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(storeDir, o.Name()), b, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	priv := ed25519.NewKeyFromSeed(unhex("owner_key_seed"))
	owner := Identity{Name: "owen", PublicKey: priv.Public().(ed25519.PublicKey), PrivateKey: priv}
	var volID VolumeID
	copy(volID[:], unhex("volume_id"))
	remount = func() *Volume {
		t.Helper()
		store, err := NewLocalStore(storeDir)
		if err != nil {
			t.Fatal(err)
		}
		client, err := NewClient(ClientConfig{Store: store, PlatformSeed: unhex("platform_seed")})
		if err != nil {
			t.Fatal(err)
		}
		vol, err := client.Mount(owner, unhex("sealed_rootkey"), volID)
		if err != nil {
			t.Fatalf("mounting the parent commit's volume: %v", err)
		}
		return vol
	}
	return remount(), storeDir, remount
}

// storeNames is the set of object names in a local store's directory.
func storeNames(t *testing.T, dir string) map[string]bool {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool, len(entries))
	for _, e := range entries {
		names[e.Name()] = true
	}
	return names
}

// TestParentVolumeMountsReadsAndMigrates: a volume in the legacy directory
// layout mounts and reads; a directory's first flush rewrites it as one
// object and retires its old bucket-0 object, the flush after deletes
// that object, and a directory with overflow buckets keeps them. A small
// file written in the chunked layout reads, and its next rewrite moves its
// content into the filenode and deletes its data object.
func TestParentVolumeMountsReadsAndMigrates(t *testing.T) {
	vol, storeDir, remount := openParentVolume(t)
	fs := vol.FS()
	checkTree := func(fs *FS, docsLinks, bigLinks int) {
		t.Helper()
		for name, want := range map[string]string{"/docs/a.txt": "alpha", "/docs/b.txt": "bravo"} {
			if got, err := fs.ReadFile(name); err != nil || string(got) != want {
				t.Fatalf("ReadFile(%s) = %q, %v", name, got, err)
			}
		}
		if entries, err := fs.ReadDir("/docs"); err != nil || len(entries) != 2+docsLinks {
			t.Fatalf("ReadDir(/docs) = %d entries, %v", len(entries), err)
		}
		// 20 links were written and link-19 removed, three buckets of 8.
		entries, err := fs.ReadDir("/big")
		if err != nil || len(entries) != 19+bigLinks {
			t.Fatalf("ReadDir(/big) = %d entries, %v", len(entries), err)
		}
		// link-17 sits in the third bucket.
		if st, err := fs.Stat("/big/link-17"); err != nil || st.SymlinkTarget != "../docs/target-17" {
			t.Fatalf("Stat(/big/link-17) = %+v, %v", st, err)
		}
		if entries, err := fs.ReadDir("/empty"); err != nil || len(entries) != 0 {
			t.Fatalf("ReadDir(/empty) = %d entries, %v", len(entries), err)
		}
	}
	checkTree(fs, 0, 0)

	// /docs fits bucket 0, and the parent's last flush of it left one
	// superseded bucket behind. Its first flush here stores the new main
	// object, deletes that bucket and retires the live bucket-0 object;
	// its second deletes that one too. (A symlink creates no object of
	// its own.)
	link := func(target, path string) {
		t.Helper()
		if err := fs.Symlink(target, path); err != nil {
			t.Fatal(err)
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	names := storeNames(t, storeDir)
	for i, path := range []string{"/docs/first", "/docs/second"} {
		link("a.txt", path)
		after := storeNames(t, storeDir)
		var gone, added []string
		for n := range names {
			if !after[n] {
				gone = append(gone, n)
			}
		}
		for n := range after {
			if !names[n] {
				added = append(added, n)
			}
		}
		if len(gone) != 1 || len(added) != 0 {
			t.Fatalf("flush %d of /docs deleted %v and created %v, want one bucket object deleted and none created", i+1, gone, added)
		}
		names = after
	}

	// /big has two overflow buckets: an ACL change (which loads no entry)
	// migrates it, later inserts rewrite and extend the overflow buckets.
	if err := vol.AddUser("bob", mustIdentity(t, "bob").PublicKey); err != nil {
		t.Fatal(err)
	}
	if err := vol.SetACL("/big", "bob", ReadOnly); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		link("x", fmt.Sprintf("/big/more-%d", i))
	}
	checkTree(fs, 2, 8)
	if acl, err := vol.GetACL("/big"); err != nil || acl["bob"] != ReadOnly {
		t.Fatalf("GetACL(/big) = %v, %v", acl, err)
	}
	// Root, /docs and /big are single-layout now; a fresh process agrees.
	fs = remount().FS()
	checkTree(fs, 2, 8)

	// a.txt is a small file in the chunked layout: it read above from its
	// data object; a rewrite moves the content into its filenode (rewritten
	// in place) and deletes that object.
	before := storeNames(t, storeDir)
	dataObjects := map[string]bool{}
	for n := range before {
		blob, err := os.ReadFile(filepath.Join(storeDir, n))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := metadata.PeekPreamble(blob); err != nil && len(n) == 32 {
			dataObjects[n] = true
		}
	}
	if err := fs.WriteFile("/docs/a.txt", []byte("alpha, inline")); err != nil {
		t.Fatal(err)
	}
	after := storeNames(t, storeDir)
	var gone []string
	for n := range before {
		if !after[n] {
			gone = append(gone, n)
		}
	}
	if len(gone) != 1 || !dataObjects[gone[0]] || len(after) != len(before)-1 {
		t.Fatalf("rewriting a.txt inline deleted %v (data objects: %d) and left %d of %d objects; want its data object deleted and nothing else changed",
			gone, len(dataObjects), len(after), len(before))
	}
	if got, err := remount().FS().ReadFile("/docs/a.txt"); err != nil || string(got) != "alpha, inline" {
		t.Fatalf("ReadFile(/docs/a.txt) after the rewrite = %q, %v", got, err)
	}
}

func mustIdentity(t *testing.T, name string) Identity {
	t.Helper()
	id, err := NewIdentity(name)
	if err != nil {
		t.Fatal(err)
	}
	return id
}
