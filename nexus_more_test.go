package nexus

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"

	"nexus/internal/backend"
	"nexus/internal/enclave"
)

func TestMutualSharePublicAPI(t *testing.T) {
	ias, err := NewAttestationService()
	if err != nil {
		t.Fatal(err)
	}
	shared := backend.NewMemStore()
	newClient := func() *Client {
		c, err := NewClient(ClientConfig{Store: WrapStore(shared), IAS: ias})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	owenClient := newClient()
	owen, err := NewIdentity("owen")
	if err != nil {
		t.Fatal(err)
	}
	vol, _, err := owenClient.CreateVolume(owen)
	if err != nil {
		t.Fatal(err)
	}
	if err := vol.FS().WriteFile("/f", []byte("pfs-protected")); err != nil {
		t.Fatal(err)
	}

	aliceClient := newClient()
	alice, err := NewIdentity("alice")
	if err != nil {
		t.Fatal(err)
	}

	offer, err := aliceClient.BeginMutualShare(alice)
	if err != nil {
		t.Fatalf("BeginMutualShare: %v", err)
	}
	grant, err := vol.GrantAccessMutual(offer, "alice", alice.PublicKey, owen)
	if err != nil {
		t.Fatalf("GrantAccessMutual: %v", err)
	}
	sealed, volID, err := aliceClient.AcceptMutualShareGrant(grant, owen.PublicKey)
	if err != nil {
		t.Fatalf("AcceptMutualShareGrant: %v", err)
	}
	if err := vol.SetACL("/", "alice", ReadOnly); err != nil {
		t.Fatal(err)
	}
	aliceVol, err := aliceClient.Mount(alice, sealed, volID)
	if err != nil {
		t.Fatal(err)
	}
	got, err := aliceVol.FS().ReadFile("/f")
	if err != nil || !bytes.Equal(got, []byte("pfs-protected")) {
		t.Fatalf("alice read = %q, %v", got, err)
	}

	// Forward secrecy at the API level: the grant cannot be re-consumed.
	if _, _, err := aliceClient.AcceptMutualShareGrant(grant, owen.PublicKey); err == nil {
		t.Fatal("replayed mutual grant accepted")
	}
}

func TestVolumeUserAdministration(t *testing.T) {
	client, err := NewClient(ClientConfig{Store: NewMemoryStore()})
	if err != nil {
		t.Fatal(err)
	}
	owner, err := NewIdentity("owen")
	if err != nil {
		t.Fatal(err)
	}
	vol, _, err := client.CreateVolume(owner)
	if err != nil {
		t.Fatal(err)
	}

	alice, err := NewIdentity("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := vol.AddUser("alice", alice.PublicKey); err != nil {
		t.Fatal(err)
	}
	users, err := vol.Users()
	if err != nil {
		t.Fatal(err)
	}
	if len(users) != 2 || users[0] != "owen" || users[1] != "alice" {
		t.Fatalf("Users = %v", users)
	}
	if err := vol.RemoveUser("alice"); err != nil {
		t.Fatal(err)
	}
	users, err = vol.Users()
	if err != nil || len(users) != 1 {
		t.Fatalf("Users after removal = %v, %v", users, err)
	}
}

func TestVolumeACLRoundTrip(t *testing.T) {
	client, err := NewClient(ClientConfig{Store: NewMemoryStore()})
	if err != nil {
		t.Fatal(err)
	}
	owner, err := NewIdentity("owen")
	if err != nil {
		t.Fatal(err)
	}
	vol, _, err := client.CreateVolume(owner)
	if err != nil {
		t.Fatal(err)
	}
	bob, err := NewIdentity("bob")
	if err != nil {
		t.Fatal(err)
	}
	if err := vol.AddUser("bob", bob.PublicKey); err != nil {
		t.Fatal(err)
	}
	if err := vol.FS().MkdirAll("/d"); err != nil {
		t.Fatal(err)
	}
	if err := vol.SetACL("/d", "bob", ReadWrite); err != nil {
		t.Fatal(err)
	}
	acl, err := vol.GetACL("/d")
	if err != nil || acl["bob"] != ReadWrite {
		t.Fatalf("GetACL = %v, %v", acl, err)
	}
	// Enclave accessor exposes statistics.
	if client.Enclave().Stats().MetadataFlushes == 0 {
		t.Fatal("no metadata flushes recorded")
	}
}

func TestMountWrongVolumeID(t *testing.T) {
	client, err := NewClient(ClientConfig{Store: NewMemoryStore()})
	if err != nil {
		t.Fatal(err)
	}
	owner, err := NewIdentity("owen")
	if err != nil {
		t.Fatal(err)
	}
	_, sealed, err := client.CreateVolume(owner)
	if err != nil {
		t.Fatal(err)
	}
	// Wrong volume id: the sealed blob's AAD binding must reject it.
	var wrong VolumeID
	wrong[0] = 0xde
	if _, err := client.Mount(owner, sealed, wrong); !errors.Is(err, enclave.ErrBadAuth) {
		t.Fatalf("Mount with wrong volume id = %v, want ErrBadAuth", err)
	}
}

func TestIdentityWithoutPrivateKeyCannotSign(t *testing.T) {
	client, err := NewClient(ClientConfig{Store: NewMemoryStore()})
	if err != nil {
		t.Fatal(err)
	}
	owner, err := NewIdentity("owen")
	if err != nil {
		t.Fatal(err)
	}
	vol, sealed, err := client.CreateVolume(owner)
	if err != nil {
		t.Fatal(err)
	}
	pubOnly := Identity{Name: owner.Name, PublicKey: owner.PublicKey}
	if _, err := client.Mount(pubOnly, sealed, vol.ID()); err == nil {
		t.Fatal("mounted without a private key")
	}
}

// twoAdapters creates a volume holding an empty /d on one backing store
// and returns it with join, which mounts it on a new computer behind a
// new adapter: the clients share the store's locks and nothing else.
func twoAdapters(t *testing.T) (*Volume, func(name string, rights Rights) *FS) {
	t.Helper()
	ias, err := NewAttestationService()
	if err != nil {
		t.Fatal(err)
	}
	shared := backend.NewMemStore()
	newClient := func() *Client {
		c, err := NewClient(ClientConfig{Store: WrapStore(shared), IAS: ias})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	owen, err := NewIdentity("owen")
	if err != nil {
		t.Fatal(err)
	}
	vol, _, err := newClient().CreateVolume(owen)
	if err != nil {
		t.Fatal(err)
	}
	if err := vol.FS().MkdirAll("/d"); err != nil {
		t.Fatal(err)
	}
	join := func(name string, rights Rights) *FS {
		t.Helper()
		id, err := NewIdentity(name)
		if err != nil {
			t.Fatal(err)
		}
		client := newClient()
		offer, err := client.BeginMutualShare(id)
		if err != nil {
			t.Fatal(err)
		}
		grant, err := vol.GrantAccessMutual(offer, name, id.PublicKey, owen)
		if err != nil {
			t.Fatal(err)
		}
		sealed, volID, err := client.AcceptMutualShareGrant(grant, owen.PublicKey)
		if err != nil {
			t.Fatal(err)
		}
		for _, dir := range []string{"/", "/d"} {
			if err := vol.SetACL(dir, name, rights); err != nil {
				t.Fatal(err)
			}
		}
		mounted, err := client.Mount(id, sealed, volID)
		if err != nil {
			t.Fatal(err)
		}
		return mounted.FS()
	}
	return vol, join
}

// wantDirNames fails the test unless dir, as fs reads it, lists exactly
// want.
func wantDirNames(t *testing.T, fs *FS, dir string, want []string) {
	t.Helper()
	entries, err := fs.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name)
	}
	sort.Strings(got)
	sort.Strings(want)
	if !slices.Equal(got, want) {
		t.Fatalf("%s lists %d entries, want %d\n got %v\nwant %v", dir, len(got), len(want), got, want)
	}
}

// TestTwoAdaptersAlternatingDrains: two clients, each behind its own
// adapter over one backing store, share its locks and nothing else. They
// take turns adding to one directory and draining. Each drain re-reads
// the freshness root and the directory under the root's store lock and must
// see what the peer put — not what this client's adapter last held — or
// it seals an epoch over the peer's (a fork) or a directory version over
// the peer's entries. The directory grows past one bucket on the way.
func TestTwoAdaptersAlternatingDrains(t *testing.T) {
	vol, join := twoAdapters(t)
	writers := []struct {
		name string
		fs   *FS
	}{{"owen", vol.FS()}, {"alice", join("alice", ReadWrite)}}
	// A third computer joins now and looks only at the end: it has read
	// nothing of /d by then, so it sees the store.
	reader := join("carol", ReadOnly)

	const rounds = 70 // 140 entries: bucket 0 overflows on the way
	var want []string
	for i := 0; i < rounds; i++ {
		for _, w := range writers {
			name := fmt.Sprintf("%s-%03d", w.name, i)
			if err := w.fs.WriteFile("/d/"+name, []byte(name)); err != nil {
				t.Fatalf("round %d: %s writes: %v", i, w.name, err)
			}
			if err := w.fs.Sync(); err != nil {
				t.Fatalf("round %d: %s drains: %v", i, w.name, err)
			}
			want = append(want, name)
		}
	}

	wantDirNames(t, reader, "/d", want)
}

// TestTwoAdaptersLockedRewalk: the mutations that are not drains —
// Rename, Hardlink, SetACL — take the freshness root's lock and walk to the
// directory again, and
// that second walk must decode what a peer behind another adapter put
// since, whatever this adapter's own version counter says: the counter
// does not move with a peer's put, so a decrypted copy accepted on it
// alone is sealed back over the peer's entries.
func TestTwoAdaptersLockedRewalk(t *testing.T) {
	vol, join := twoAdapters(t)
	owen, alice := vol.FS(), join("alice", ReadWrite)

	const rounds = 6
	var want []string
	for i := 0; i < rounds; i++ {
		mine, hers := fmt.Sprintf("owen-%d", i), fmt.Sprintf("alice-%d", i)
		if err := owen.WriteFile("/d/"+mine, []byte(mine)); err != nil {
			t.Fatal(err)
		}
		if err := owen.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := alice.WriteFile("/d/"+hers, []byte(hers)); err != nil {
			t.Fatal(err)
		}
		if err := alice.Sync(); err != nil {
			t.Fatal(err)
		}
		want = append(want, hers)
		// owen's copy of /d is now one put behind the store's.
		if i%2 == 0 {
			if err := owen.Rename("/d/"+mine, "/d/"+mine+"-moved"); err != nil {
				t.Fatalf("round %d: rename: %v", i, err)
			}
			want = append(want, mine+"-moved")
		} else {
			if err := owen.Hardlink("/d/"+mine, "/d/"+mine+"-link"); err != nil {
				t.Fatalf("round %d: hardlink: %v", i, err)
			}
			want = append(want, mine, mine+"-link")
		}
		if err := alice.WriteFile("/d/"+hers+"-late", []byte(hers)); err != nil {
			t.Fatal(err)
		}
		if err := alice.Sync(); err != nil {
			t.Fatal(err)
		}
		want = append(want, hers+"-late")
	}
	// carol joins last: owen's SetACL on /d follows alice's final drain.
	wantDirNames(t, join("carol", ReadOnly), "/d", want)
}
