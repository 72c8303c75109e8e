package metadata

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"nexus/internal/acl"
	"nexus/internal/groupkey"
	"nexus/internal/serial"
	"nexus/internal/uuid"
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

// TestSupernodeDecodeEnforcesAddUserInvariants: a body whose member list
// AddUser could never have produced is refused, not loaded. Records carry
// no ID, so the ID cases change the key tree's members.
func TestSupernodeDecodeEnforcesAddUserInvariants(t *testing.T) {
	encode := func(change func(s *Supernode)) func(*Supernode) []byte {
		return func(s *Supernode) []byte {
			change(s)
			return s.EncodeBody()
		}
	}
	// treeID rewrites the ID of leaf 0's member at position j in the
	// encoded tree: the owner is at 0, alice at 1.
	treeID := func(j int, id uint32) func(*Supernode) []byte {
		return func(s *Supernode) []byte {
			body := s.EncodeBody()
			at := len(body) - len(s.GroupTree.Encode()) + treeMembersAt + 12*j
			binary.LittleEndian.PutUint32(body[at:], id)
			return body
		}
	}
	// moveMember re-enrolls the member from as to, keeping its record.
	moveMember := func(t *testing.T, from, to uint32) func(*Supernode) []byte {
		return encode(func(s *Supernode) {
			if err := s.GroupTree.Revoke(from); err != nil {
				t.Fatal(err)
			}
			if _, err := s.GroupTree.Add(to); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, tc := range []struct {
		name   string
		mangle func(s *Supernode) []byte
	}{
		{"short owner key", encode(func(s *Supernode) { s.records[0].key = s.records[0].key[:5] })},
		{"short user key", encode(func(s *Supernode) { s.records[1].key = s.records[1].key[:31] })},
		{"empty name", encode(func(s *Supernode) { s.records[1].name = "" })},
		{"name over the limit", encode(func(s *Supernode) { s.records[1].name = strings.Repeat("n", maxUserNameLen+1) })},
		{"duplicate name", encode(func(s *Supernode) { s.records[2].name = s.records[1].name })},
		{"name of the owner", encode(func(s *Supernode) { s.records[1].name = s.records[0].name })},
		{"duplicate key", encode(func(s *Supernode) { s.records[2].key = s.records[1].key })},
		{"duplicate id", treeID(1, 4)},
		{"id of the owner", treeID(1, OwnerUserID)},
		{"id not yet assigned", moveMember(t, 4, 5)},
		{"owner id moved", moveMember(t, OwnerUserID, 3)},
		{"next id in the group space", encode(func(s *Supernode) { s.NextUserID = acl.GroupIDFlag + 1 })},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := sampleSupernode(t)
			if _, err := DecodeSupernodeBody(tc.mangle(s)); err == nil {
				t.Fatal("decoder accepted the body")
			}
		})
	}
}

// layoutAt is the offset of the layout tag, after the two UUIDs.
const layoutAt = 2 * uuid.Size

// treeMembersAt is the offset in an encoded key tree of its first leaf's
// first member ID: after the format, the config, the epoch, the seed, the
// leaf count and the leaf's member count.
const treeMembersAt = 1 + 4 + 4 + 8 + groupkey.KeySize + 4 + 4

// sampleSupernode builds a real supernode: an owner (1), two users left
// of three (alice 2 and carol 4; bob 3 removed, so the IDs have a gap),
// over a key tree of two-member leaves: owen and alice in leaf 0, carol
// in leaf 1.
func sampleSupernode(tb testing.TB) *Supernode {
	tb.Helper()
	s := &Supernode{
		VolumeUUID: uuid.New(),
		RootDir:    uuid.New(),
		NextUserID: OwnerUserID,
		GroupTree:  groupkey.NewTree(groupkey.Config{LeafCap: 2, Fanout: 2}),
	}
	for i, name := range []string{"owen", "alice", "bob", "carol"} {
		if _, err := s.AddUser(name, syntheticKey(uint32(i))); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := s.RemoveUser("bob"); err != nil {
		tb.Fatal(err)
	}
	return s
}

// twoListBody is s in the retired two-list layout, which stored the
// owner's record and then every other user's, each with its ID, beside
// the key tree (testdata/supernode-two-lists.body is one such body, as
// that layout's encoder wrote it). Without the tree it is the layout from
// before the key tree, which ended after NextUserID.
func twoListBody(s *Supernode, withTree bool) []byte {
	w := serial.NewWriter(0)
	w.WriteRaw(s.VolumeUUID[:])
	w.WriteRaw(s.RootDir[:])
	for i, u := range s.Users() {
		if i == 1 {
			w.WriteUint32(uint32(len(s.records) - 1))
		}
		w.WriteUint32(u.ID)
		w.WriteString(u.Name)
		w.WriteBytes(u.PublicKey)
	}
	w.WriteUint32(s.NextUserID)
	if withTree {
		w.WriteUint8(1)
		w.WriteBytes(s.GroupTree.Encode())
	}
	return w.Bytes()
}

// TestSupernodeBodySizePerMember pins what a member costs the supernode
// body now that the table stores no ID beside the key tree's and a key
// with no length prefix: at 256 members — share_revoke's group — at most
// 60 B each, of which the key tree's share is at most 16 B (an ID and a
// join epoch, plus the node keys spread over the members).
func TestSupernodeBodySizePerMember(t *testing.T) {
	const members = 256
	s, err := NewSupernode("owen", syntheticKey(0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < members; i++ {
		if _, err := s.AddUser(fmt.Sprintf("user%03d", i), syntheticKey(uint32(i))); err != nil {
			t.Fatal(err)
		}
	}
	body, tree := len(s.EncodeBody()), len(s.GroupTree.Encode())
	t.Logf("%d members: body %d B (%.1f B each), key tree %d B (%.1f B each)",
		members, body, float64(body)/members, tree, float64(tree)/members)
	if per := float64(body) / members; per > 60 {
		t.Fatalf("supernode body is %.1f B per member, want at most 60", per)
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
	s := sampleSupernode(t)
	body := s.EncodeBody()
	body = append(body[:len(body)-len(s.GroupTree.Encode())], format1...)
	_, err = DecodeSupernodeBody(body)
	if !errors.Is(err, ErrUnsupportedLayout) || !errors.Is(err, groupkey.ErrUnsupportedLayout) {
		t.Fatalf("DecodeSupernodeBody(format-1 key tree) = %v, want ErrUnsupportedLayout", err)
	}
}

// FuzzSupernodeBodyDecode hammers the supernode decoder — the body is
// untrusted until the enclave accepts it — with hostile bytes. It must
// never panic; an accepted body must re-encode to the identical bytes,
// list exactly the key tree's members with the owner as member
// OwnerUserID, and hold every invariant AddUser maintains, so the enclave
// can look users up and keep adding them. The seeds include bodies in
// the retired two-list layout, the golden one among them, which must fail
// with ErrUnsupportedLayout.
func FuzzSupernodeBodyDecode(f *testing.F) {
	owner, err := NewSupernode("owen", syntheticKey(0))
	if err != nil {
		f.Fatal(err)
	}
	golden, err := os.ReadFile("testdata/supernode-two-lists.body")
	if err != nil {
		f.Fatal(err)
	}
	for _, body := range [][]byte{twoListBody(owner, true), golden} {
		if _, err := DecodeSupernodeBody(body); !errors.Is(err, ErrUnsupportedLayout) {
			f.Fatalf("two-list seed: DecodeSupernodeBody = %v, want ErrUnsupportedLayout", err)
		}
		f.Add(body)
	}
	f.Add(owner.EncodeBody())
	f.Add(sampleSupernode(f).EncodeBody())
	f.Fuzz(func(t *testing.T, body []byte) {
		s, err := DecodeSupernodeBody(body)
		if err != nil {
			return
		}
		if again := s.EncodeBody(); !bytes.Equal(again, body) {
			t.Fatalf("decode → encode differs:\n in %x\nout %x", body, again)
		}
		users := s.Users()
		if len(users) != s.GroupTree.Len() || len(users) == 0 || users[0].ID != OwnerUserID {
			t.Fatalf("accepted supernode lists %d users for %d tree members: %+v", len(users), s.GroupTree.Len(), users)
		}
		if s.NextUserID > acl.GroupIDFlag || len(users) > MaxUsers {
			t.Fatalf("accepted supernode: next id %d, %d users", s.NextUserID, len(users))
		}
		for _, u := range users {
			if !s.GroupTree.Contains(u.ID) {
				t.Fatalf("user %q (id %d) is not a key-tree member", u.Name, u.ID)
			}
			if u.Name == "" || len(u.Name) > maxUserNameLen || len(u.PublicKey) != ed25519.PublicKeySize {
				t.Fatalf("accepted user %+v", u)
			}
			if u.ID >= s.NextUserID {
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
