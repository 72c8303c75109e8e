package metadata

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"nexus/internal/acl"
	"nexus/internal/groupkey"
	"nexus/internal/serial"
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
			s := sampleSupernode(t)
			tc.mangle(s)
			if _, err := DecodeSupernodeBody(s.EncodeBody()); err == nil {
				t.Fatal("decoder accepted the body")
			}
		})
	}
}

// sampleSupernode builds a real supernode: an owner, two users left of
// three (one removed, so the IDs have a gap), and the key tree over them.
func sampleSupernode(tb testing.TB) *Supernode {
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
	s.GroupTree = groupkey.NewTree(groupkey.Config{LeafCap: 2, Fanout: 2})
	for _, u := range append([]User{s.Owner}, s.Users...) {
		if _, err := s.GroupTree.Add(u.ID); err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

// retiredSupernodeBody is s as the retired layout wrote it: the body cut
// after NextUserID, before the key tree's tag and length-prefixed blob.
func retiredSupernodeBody(s *Supernode) []byte {
	body := s.EncodeBody()
	return body[:len(body)-1-4-len(s.GroupTree.Encode())]
}

// TestSupernodeBodySizePerMember pins what a member costs the supernode
// body now that member secrets and key-tree wraps are derived, not
// stored: at 256 members — share_revoke's group — at most 80 B each,
// of which the key tree's share is at most 16 B (an ID and a join epoch,
// plus the node keys spread over the members).
func TestSupernodeBodySizePerMember(t *testing.T) {
	const members = 256
	s, err := NewSupernode("owen", syntheticKey(0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < members; i++ {
		id, err := s.AddUser(fmt.Sprintf("user%03d", i), syntheticKey(uint32(i)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.GroupTree.Add(id); err != nil {
			t.Fatal(err)
		}
	}
	body, tree := len(s.EncodeBody()), len(s.GroupTree.Encode())
	t.Logf("%d members: body %d B (%.1f B each), key tree %d B (%.1f B each)",
		members, body, float64(body)/members, tree, float64(tree)/members)
	if per := float64(body) / members; per > 80 {
		t.Fatalf("supernode body is %.1f B per member, want at most 80", per)
	}
	if per := float64(tree) / members; per > 16 {
		t.Fatalf("key tree is %.1f B per member, want at most 16", per)
	}
}

// TestSupernodeRetiredKeyTreeFailsClosed: a supernode carrying a key
// tree of format 1, which stored every member secret and wrap, fails
// with ErrUnsupportedLayout and is not migrated.
func TestSupernodeRetiredKeyTreeFailsClosed(t *testing.T) {
	format1, err := os.ReadFile("../groupkey/testdata/tree-format1.golden")
	if err != nil {
		t.Fatal(err)
	}
	w := serial.NewWriter(0)
	w.WriteRaw(retiredSupernodeBody(sampleSupernode(t)))
	w.WriteUint8(supernodeExtGroupTree)
	w.WriteBytes(format1)
	_, err = DecodeSupernodeBody(w.Bytes())
	if !errors.Is(err, ErrUnsupportedLayout) || !errors.Is(err, groupkey.ErrUnsupportedLayout) {
		t.Fatalf("DecodeSupernodeBody(format-1 key tree) = %v, want ErrUnsupportedLayout", err)
	}
}

// FuzzSupernodeBodyDecode hammers the supernode decoder — the body is
// untrusted until the enclave accepts it — with hostile bytes. It must
// never panic; an accepted body must carry a key tree, re-encode to the
// identical bytes and hold every invariant AddUser maintains, so the
// enclave can look users up and keep adding them. The seeds include
// bodies in the retired layout without a tree, which must fail with
// ErrUnsupportedLayout.
func FuzzSupernodeBodyDecode(f *testing.F) {
	owner, err := NewSupernode("owen", syntheticKey(0))
	if err != nil {
		f.Fatal(err)
	}
	sample := sampleSupernode(f)
	for _, body := range [][]byte{retiredSupernodeBody(owner), retiredSupernodeBody(sample)} {
		if _, err := DecodeSupernodeBody(body); !errors.Is(err, ErrUnsupportedLayout) {
			f.Fatalf("retired-layout seed: DecodeSupernodeBody = %v, want ErrUnsupportedLayout", err)
		}
		f.Add(body)
	}
	f.Add(owner.EncodeBody())
	f.Add(sample.EncodeBody())
	f.Fuzz(func(t *testing.T, body []byte) {
		s, err := DecodeSupernodeBody(body)
		if err != nil {
			return
		}
		if s.GroupTree == nil {
			t.Fatal("accepted supernode has no key tree")
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
