package metadata

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"nexus/internal/acl"
	"nexus/internal/groupkey"
)

// syntheticKey returns a deterministic 32-byte "public key". AddUser
// only validates key length and uniqueness, so filling the table to the
// MaxUsers bound does not need 64K real ed25519 keypairs.
func syntheticKey(i uint32) ed25519.PublicKey {
	k := make([]byte, ed25519.PublicKeySize)
	binary.BigEndian.PutUint32(k, i)
	k[ed25519.PublicKeySize-1] = 0xA5
	return k
}

// TestSupernodeUserTableAtMaxUsersBound fills the table to capacity,
// asserting that lookups stay correct through the fill (the sorted
// indexes, not a rescan, must be serving them — a linear scan here is the
// regression this guards against), that the MaxUsers bound is enforced,
// and that removal frees a slot.
func TestSupernodeUserTableAtMaxUsersBound(t *testing.T) {
	s, err := NewSupernode("owen", syntheticKey(0))
	if err != nil {
		t.Fatal(err)
	}
	// Owner occupies one slot: MaxUsers-1 additions fit.
	for i := 1; i < MaxUsers; i++ {
		name := fmt.Sprintf("u%d", i)
		if _, err := s.AddUser(name, syntheticKey(uint32(i))); err != nil {
			t.Fatalf("AddUser #%d: %v", i, err)
		}
	}
	if n := len(s.Users()); n != MaxUsers || s.GroupTree.Len() != MaxUsers {
		t.Fatalf("table holds %d users and the key tree %d members, want %d", n, s.GroupTree.Len(), MaxUsers)
	}
	// At capacity: the next add must fail with the typed error.
	if _, err := s.AddUser("overflow", syntheticKey(MaxUsers+7)); !errors.Is(err, ErrUserTableFull) {
		t.Fatalf("over-capacity AddUser err = %v, want ErrUserTableFull", err)
	}
	// Lookups at the bound: first, last, middle, owner, and a miss.
	for _, name := range []string{"u1", "u32768", fmt.Sprintf("u%d", MaxUsers-1)} {
		u, err := s.FindUserByName(name)
		if err != nil || u.Name != name {
			t.Fatalf("FindUserByName(%s) = %+v, %v", name, u, err)
		}
		byKey, err := s.FindUserByKey(u.PublicKey)
		if err != nil || byKey.ID != u.ID {
			t.Fatalf("FindUserByKey(%s) = %+v, %v", name, byKey, err)
		}
	}
	if u, err := s.FindUserByName("owen"); err != nil || u.ID != OwnerUserID {
		t.Fatalf("owner lookup = %+v, %v", u, err)
	}
	if _, err := s.FindUserByName("nobody"); !errors.Is(err, ErrUserNotFound) {
		t.Fatalf("miss err = %v", err)
	}
	// Duplicate detection still works at the bound (and must not panic
	// on the full index).
	if _, err := s.AddUser("u5", syntheticKey(999_999)); !errors.Is(err, ErrUserExists) {
		// Either full or exists is defensible; the table is full first.
		if !errors.Is(err, ErrUserTableFull) {
			t.Fatalf("duplicate-at-capacity err = %v", err)
		}
	}
	// Removing one frees exactly one slot.
	if _, err := s.RemoveUser("u17"); err != nil {
		t.Fatalf("RemoveUser: %v", err)
	}
	if _, err := s.FindUserByName("u17"); !errors.Is(err, ErrUserNotFound) {
		t.Fatal("removed user still found")
	}
	if _, err := s.AddUser("replacement", syntheticKey(MaxUsers+8)); err != nil {
		t.Fatalf("AddUser into freed slot: %v", err)
	}
	if u, err := s.FindUserByName("replacement"); err != nil || u.Name != "replacement" {
		t.Fatalf("replacement lookup = %+v, %v", u, err)
	}
}

// TestSupernodeLookupsConstantTime compares lookup cost at two table
// sizes: with the index, per-lookup work must not scale with n. A 64×
// table growth allows ≤8× timing slack (noise), which an O(n) scan
// blows through by an order of magnitude.
func TestSupernodeLookupsConstantTime(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison")
	}
	build := func(n int) *Supernode {
		s, err := NewSupernode("owen", syntheticKey(0))
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= n; i++ {
			if _, err := s.AddUser(fmt.Sprintf("u%d", i), syntheticKey(uint32(i))); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	lookups := func(s *Supernode, n int) int64 {
		target := fmt.Sprintf("u%d", n) // worst case for a linear scan
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.FindUserByName(target); err != nil {
					b.Fatal(err)
				}
			}
		})
		return res.NsPerOp()
	}
	small := lookups(build(512), 512)
	big := lookups(build(32768), 32768)
	if small > 0 && big > small*8 {
		t.Fatalf("lookup scaled with table size: %dns @512 → %dns @32768", small, big)
	}
}

// TestSupernodeUserIDSpaceReservedForGroups pins the invariant the ACL
// group encoding relies on: user IDs assigned by the supernode never
// collide with acl.GroupIDFlag-tagged entries.
func TestSupernodeUserIDSpaceReservedForGroups(t *testing.T) {
	s, err := NewSupernode("owen", syntheticKey(0))
	if err != nil {
		t.Fatal(err)
	}
	s.NextUserID = acl.GroupIDFlag // simulate exhaustion
	if _, err := s.AddUser("flagged", syntheticKey(1)); err == nil {
		t.Fatal("AddUser assigned an ID in the group-entry space")
	}
	s.NextUserID = acl.GroupIDFlag - 1
	id, err := s.AddUser("last", syntheticKey(2))
	if err != nil || id != acl.GroupIDFlag-1 {
		t.Fatalf("last assignable ID = %d, %v", id, err)
	}
	if acl.IsGroupEntry(id) {
		t.Fatal("assigned ID reads as a group entry")
	}
}

// TestSupernodeGroupTreeRoundTrip covers the key tree as the member
// list: AddUser enrolls, the tree survives encode/decode with the table's
// members, a body of a retired layout — the two-list one, with or without
// its tree — fails closed, and a corrupt layout tag or tree is refused.
func TestSupernodeGroupTreeRoundTrip(t *testing.T) {
	s, err := NewSupernode("owen", syntheticKey(0))
	if err != nil {
		t.Fatal(err)
	}
	if s.GroupTree == nil || !s.GroupTree.Contains(OwnerUserID) || s.GroupTree.Len() != 1 {
		t.Fatal("NewSupernode did not enroll the owner in a key tree")
	}
	aliceID, err := s.AddUser("alice", syntheticKey(1))
	if err != nil {
		t.Fatal(err)
	}
	if !s.GroupTree.Contains(aliceID) {
		t.Fatal("AddUser did not enroll alice in the key tree")
	}
	ext := s.EncodeBody()
	got, err := DecodeSupernodeBody(ext)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.GroupTree.Len() != 2 || !got.GroupTree.Contains(aliceID) {
		t.Fatalf("decoded tree: len=%d contains(alice)=%v", got.GroupTree.Len(), got.GroupTree.Contains(aliceID))
	}
	if u, err := got.FindUserByID(aliceID); err != nil || u.Name != "alice" {
		t.Fatalf("decoded alice = %+v, %v", u, err)
	}
	if !bytes.Equal(got.GroupTree.Encode(), s.GroupTree.Encode()) {
		t.Fatal("decoded tree differs")
	}
	for name, body := range map[string][]byte{"two lists": twoListBody(s, true), "no key tree": twoListBody(s, false)} {
		if _, err := DecodeSupernodeBody(body); !errors.Is(err, ErrUnsupportedLayout) {
			t.Fatalf("DecodeSupernodeBody(%s) = %v, want ErrUnsupportedLayout", name, err)
		}
	}
	// Corrupt layout tag must be rejected, not ignored.
	bad := bytes.Clone(ext)
	bad[layoutAt] = 99
	if _, err := DecodeSupernodeBody(bad); !errors.Is(err, ErrMalformed) {
		t.Fatalf("unknown layout tag: %v, want ErrMalformed", err)
	}
	// A corrupt structural field of the tree — the last byte of its leaf
	// count, after the format and the leaf cap — must be rejected.
	leafCountAt := len(ext) - len(s.GroupTree.Encode()) + 1 + 4
	bad = bytes.Clone(ext)
	bad[leafCountAt+3] ^= 0xFF
	if _, err := DecodeSupernodeBody(bad); !errors.Is(err, groupkey.ErrMalformed) {
		t.Fatalf("corrupt tree leaf count: %v, want groupkey.ErrMalformed", err)
	}
	// A member ID, like a name or a key, decodes whatever its value if it
	// stays unique; the seal is what guards it. A flipped byte anywhere
	// in the sealed supernode fails Open.
	rootKey, err := NewRootKey()
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := Seal(rootKey, Preamble{Type: TypeSupernode, UUID: s.VolumeUUID, Version: 1}, ext)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(rootKey, sealed); err != nil {
		t.Fatalf("Open of the untouched supernode: %v", err)
	}
	for i := range sealed {
		bad := bytes.Clone(sealed)
		bad[i] ^= 0x01
		if _, _, err := Open(rootKey, bad); err == nil {
			t.Fatalf("Open accepted the sealed supernode with byte %d of %d flipped", i, len(sealed))
		}
	}
}
