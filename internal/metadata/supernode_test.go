package metadata

import (
	"bytes"
	"crypto/ed25519"
	"strings"
	"testing"

	"nexus/internal/acl"
	"nexus/internal/groupkey"
)

// TestSupernodeUserNameLimit: every name AddUser or NewSupernode accepts
// must decode again after a flush. A longer one used to be added, sealed
// and then refused by the decoder, leaving the volume unloadable.
func TestSupernodeUserNameLimit(t *testing.T) {
	long := strings.Repeat("n", maxUserNameLen)
	if _, err := NewSupernode(long+"x", syntheticKey(0)); err == nil {
		t.Fatal("NewSupernode accepted a 257-byte owner name")
	}
	s, err := NewSupernode("owen", syntheticKey(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddUser(long+"x", syntheticKey(1)); err == nil {
		t.Fatal("AddUser accepted a 257-byte name")
	}
	if _, err := s.AddUser(long, syntheticKey(2)); err != nil {
		t.Fatalf("AddUser(256-byte name): %v", err)
	}
	got, err := DecodeSupernodeBody(s.EncodeBody())
	if err != nil {
		t.Fatalf("decoding a body with a 256-byte name: %v", err)
	}
	if u, err := got.FindUserByName(long); err != nil || u.ID != 2 {
		t.Fatalf("FindUserByName(256-byte name) = %+v, %v", u, err)
	}
}

// TestSupernodeDecodeEnforcesAddUserInvariants: a body whose user table
// AddUser could never have produced is refused, not loaded.
func TestSupernodeDecodeEnforcesAddUserInvariants(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mangle func(s *Supernode)
	}{
		{"short owner key", func(s *Supernode) { s.Owner.PublicKey = s.Owner.PublicKey[:5] }},
		{"short user key", func(s *Supernode) { s.Users[0].PublicKey = s.Users[0].PublicKey[:31] }},
		{"empty name", func(s *Supernode) { s.Users[0].Name = "" }},
		{"name over the limit", func(s *Supernode) { s.Users[0].Name = strings.Repeat("n", maxUserNameLen+1) }},
		{"duplicate name", func(s *Supernode) { s.Users[1].Name = s.Users[0].Name }},
		{"name of the owner", func(s *Supernode) { s.Users[0].Name = s.Owner.Name }},
		{"duplicate key", func(s *Supernode) { s.Users[1].PublicKey = s.Users[0].PublicKey }},
		{"duplicate id", func(s *Supernode) { s.Users[1].ID = s.Users[0].ID }},
		{"id of the owner", func(s *Supernode) { s.Users[0].ID = OwnerUserID }},
		{"id not yet assigned", func(s *Supernode) { s.Users[1].ID = s.NextUserID }},
		{"owner id moved", func(s *Supernode) { s.Owner.ID = 7 }},
		{"next id in the group space", func(s *Supernode) { s.NextUserID = acl.GroupIDFlag + 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := sampleSupernode(t, false)
			tc.mangle(s)
			if _, err := DecodeSupernodeBody(s.EncodeBody()); err == nil {
				t.Fatal("decoder accepted the body")
			}
		})
	}
}

// sampleSupernode builds a real supernode: an owner, two users left of
// three (one removed, so the IDs have a gap), and optionally the key
// tree over them.
func sampleSupernode(tb testing.TB, withTree bool) *Supernode {
	tb.Helper()
	s, err := NewSupernode("owen", syntheticKey(0))
	if err != nil {
		tb.Fatal(err)
	}
	for i, name := range []string{"alice", "bob", "carol"} {
		if _, err := s.AddUser(name, syntheticKey(uint32(i+1))); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := s.RemoveUser("bob"); err != nil {
		tb.Fatal(err)
	}
	if withTree {
		s.GroupTree = groupkey.NewTree(groupkey.Config{LeafCap: 2, Fanout: 2})
		for _, u := range append([]User{s.Owner}, s.Users...) {
			if _, err := s.GroupTree.Add(u.ID); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return s
}

// FuzzSupernodeBodyDecode hammers the supernode decoder — the body is
// untrusted until the enclave accepts it — with hostile bytes. It must
// never panic; an accepted body must re-encode to the identical bytes
// and hold every invariant AddUser maintains, so the enclave can look
// users up and keep adding them.
func FuzzSupernodeBodyDecode(f *testing.F) {
	owner, err := NewSupernode("owen", syntheticKey(0))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(owner.EncodeBody())
	f.Add(sampleSupernode(f, false).EncodeBody())
	f.Add(sampleSupernode(f, true).EncodeBody())
	f.Fuzz(func(t *testing.T, body []byte) {
		s, err := DecodeSupernodeBody(body)
		if err != nil {
			return
		}
		if again := s.EncodeBody(); !bytes.Equal(again, body) {
			t.Fatalf("decode → encode differs:\n in %x\nout %x", body, again)
		}
		if s.Owner.ID != OwnerUserID || s.NextUserID > acl.GroupIDFlag || len(s.Users) >= maxUsers {
			t.Fatalf("accepted supernode: owner id %d, next id %d, %d users", s.Owner.ID, s.NextUserID, len(s.Users))
		}
		for _, u := range append([]User{s.Owner}, s.Users...) {
			if u.Name == "" || len(u.Name) > maxUserNameLen || len(u.PublicKey) != ed25519.PublicKeySize {
				t.Fatalf("accepted user %+v", u)
			}
			if u.ID != OwnerUserID && u.ID >= s.NextUserID {
				t.Fatalf("user %q id %d not below next id %d", u.Name, u.ID, s.NextUserID)
			}
			// Names, keys and IDs are unique: each one finds its own user.
			byName, err1 := s.FindUserByName(u.Name)
			byKey, err2 := s.FindUserByKey(u.PublicKey)
			byID, err3 := s.FindUserByID(u.ID)
			if err1 != nil || err2 != nil || err3 != nil || byName.ID != u.ID || byKey.ID != u.ID || byID.Name != u.Name {
				t.Fatalf("lookups of %q disagree: %+v %+v %+v", u.Name, byName, byKey, byID)
			}
		}
	})
}
