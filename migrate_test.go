package nexus

import (
	"bytes"
	"crypto/ed25519"
	"encoding/hex"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nexus/internal/metadata"
)

// TestParentVolumeFailsClosed: testdata/volume-pr22 — a volume written
// by the commit before directories became single objects (every bucket,
// bucket 0 included, a separate store object; bucket size 8; a format-1
// sealed freshness root) — is in retired layouts. Mounting it, or at the
// latest its first read, fails with metadata.ErrUnsupportedLayout, and no
// object in the store directory changes, byte for byte. The manifest
// carries what the writing process kept outside the store: platform
// seed, owner key seed, volume ID and sealed rootkey.
func TestParentVolumeFailsClosed(t *testing.T) {
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
	golden := storeObjects(t, filepath.Join(src, "store"))
	storeDir := t.TempDir()
	for name, b := range golden {
		if err := os.WriteFile(filepath.Join(storeDir, name), b, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	priv := ed25519.NewKeyFromSeed(unhex("owner_key_seed"))
	owner := Identity{Name: "owen", PublicKey: priv.Public().(ed25519.PublicKey), PrivateKey: priv}
	var volID VolumeID
	copy(volID[:], unhex("volume_id"))
	store, err := NewLocalStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(ClientConfig{Store: store, PlatformSeed: unhex("platform_seed")})
	if err != nil {
		t.Fatal(err)
	}
	vol, err := client.Mount(owner, unhex("sealed_rootkey"), volID)
	if err == nil {
		_, err = vol.FS().ReadDir("/docs")
	}
	if !errors.Is(err, metadata.ErrUnsupportedLayout) {
		t.Fatalf("mounting and reading the parent commit's volume = %v, want ErrUnsupportedLayout", err)
	}
	if after := storeObjects(t, storeDir); !maps.EqualFunc(golden, after, bytes.Equal) {
		t.Fatalf("the failed mount changed the store directory: %d objects before, %d after", len(golden), len(after))
	}
}

// storeObjects reads every object file in a local store's directory.
func storeObjects(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	objects := make(map[string][]byte, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		objects[e.Name()] = b
	}
	return objects
}

// TestMultiBucketDirectorySurvivesRemount: on a volume the current code
// writes (bucket size 8), a directory of three buckets reads across all
// of them; an ACL change, which loads no entry, and inserts that rewrite
// and extend its overflow buckets keep every entry and the ACL, in this
// process and in a fresh one.
func TestMultiBucketDirectorySurvivesRemount(t *testing.T) {
	storeDir := t.TempDir()
	seed := []byte("multi-bucket directory platform seed")
	client := func() *Client {
		t.Helper()
		store, err := NewLocalStore(storeDir)
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewClient(ClientConfig{Store: store, PlatformSeed: seed, BucketSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	owner, err := NewIdentity("owen")
	if err != nil {
		t.Fatal(err)
	}
	vol, sealed, err := client().CreateVolume(owner)
	if err != nil {
		t.Fatal(err)
	}
	fs := vol.FS()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(fs.Mkdir("/big"))
	for i := range 20 {
		must(fs.Symlink(fmt.Sprintf("../docs/target-%d", i), fmt.Sprintf("/big/link-%d", i)))
	}
	must(fs.Remove("/big/link-19"))
	must(fs.Sync())
	checkBig := func(fs *FS, more int) {
		t.Helper()
		if entries, err := fs.ReadDir("/big"); err != nil || len(entries) != 19+more {
			t.Fatalf("ReadDir(/big) = %d entries, %v; want %d", len(entries), err, 19+more)
		}
		// link-17 sits in the third bucket.
		if st, err := fs.Stat("/big/link-17"); err != nil || st.SymlinkTarget != "../docs/target-17" {
			t.Fatalf("Stat(/big/link-17) = %+v, %v", st, err)
		}
	}
	checkBig(fs, 0)

	bob, err := NewIdentity("bob")
	if err != nil {
		t.Fatal(err)
	}
	must(vol.AddUser("bob", bob.PublicKey))
	must(vol.SetACL("/big", "bob", ReadOnly))
	for i := range 8 {
		must(fs.Symlink("x", fmt.Sprintf("/big/more-%d", i)))
		must(fs.Sync())
	}
	remounted, err := client().Mount(owner, sealed, vol.ID())
	if err != nil {
		t.Fatal(err)
	}
	for _, fs := range []*FS{fs, remounted.FS()} {
		checkBig(fs, 8)
		if acl, err := fs.GetACL("/big"); err != nil || acl["bob"] != ReadOnly {
			t.Fatalf("GetACL(/big) = %v, %v", acl, err)
		}
	}
}
