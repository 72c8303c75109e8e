package groupkey

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"testing"
)

func mustAdd(t *testing.T, tr *Tree, id uint32) uint32 {
	t.Helper()
	leaf, err := tr.Add(id)
	if err != nil {
		t.Fatalf("Add(%d): %v", id, err)
	}
	if got, ok := tr.LeafOf(id); !ok || got != leaf {
		t.Fatalf("Add(%d) = leaf %d, LeafOf = %d, %v", id, leaf, got, ok)
	}
	return leaf
}

func TestTreeAddFillsLeaves(t *testing.T) {
	tr := NewTree(Config{LeafCap: 4})
	for id := uint32(1); id <= 40; id++ {
		// Each leaf fills before the next one opens.
		if leaf := mustAdd(t, tr, id); leaf != (id-1)/4 {
			t.Fatalf("Add(%d) = leaf %d, want %d", id, leaf, (id-1)/4)
		}
	}
	if tr.Len() != 40 {
		t.Fatalf("Len = %d, want 40", tr.Len())
	}
	for id := uint32(1); id <= 40; id++ {
		if !tr.Contains(id) {
			t.Fatalf("Contains(%d) = false", id)
		}
	}
	if tr.Leaves() != 10 {
		t.Fatalf("Leaves = %d, want 10", tr.Leaves())
	}
	if ids := tr.IDs(); len(ids) != 40 || ids[0] != 1 || ids[39] != 40 {
		t.Fatalf("IDs = %v", ids)
	}
}

func TestTreeDuplicateAddAndUnknownRevoke(t *testing.T) {
	tr := NewTree(Config{})
	mustAdd(t, tr, 7)
	if _, err := tr.Add(7); !errors.Is(err, ErrMemberExists) {
		t.Fatalf("duplicate Add err = %v, want ErrMemberExists", err)
	}
	if err := tr.Revoke(99); !errors.Is(err, ErrUnknownMember) {
		t.Fatalf("unknown Revoke err = %v, want ErrUnknownMember", err)
	}
	if err := tr.Revoke(7); err != nil {
		t.Fatalf("Revoke(7): %v", err)
	}
	if tr.Contains(7) || tr.Len() != 0 {
		t.Fatal("revoked user still a member")
	}
	if err := tr.Revoke(7); !errors.Is(err, ErrUnknownMember) {
		t.Fatalf("second Revoke err = %v, want ErrUnknownMember", err)
	}
}

func TestTreeSparsestLeafPlacement(t *testing.T) {
	tr := NewTree(Config{LeafCap: 2})
	for id := uint32(1); id <= 6; id++ {
		mustAdd(t, tr, id)
	}
	// Leaves fill in order: {1,2} {3,4} {5,6}. Revoking 3 leaves leaf 1
	// the sparsest; the next add must land there.
	if err := tr.Revoke(3); err != nil {
		t.Fatalf("Revoke: %v", err)
	}
	if leaf := mustAdd(t, tr, 7); leaf != 1 {
		t.Fatalf("Add(7) = leaf %d, want leaf 1", leaf)
	}
	if got := tr.Members(1); len(got) != 2 || got[0] != 4 || got[1] != 7 {
		t.Fatalf("Members(1) = %v, want [4 7]", got)
	}
}

func TestTreeGroupsOfAndLeafStability(t *testing.T) {
	tr := NewTree(Config{LeafCap: 2})
	for id := uint32(1); id <= 5; id++ {
		mustAdd(t, tr, id)
	}
	leafBefore := map[uint32]uint32{}
	for id := uint32(1); id <= 5; id++ {
		lf, ok := tr.LeafOf(id)
		if !ok {
			t.Fatalf("LeafOf(%d) missing", id)
		}
		leafBefore[id] = lf
		groups := tr.GroupsOf(id)
		if len(groups) != 1 || groups[0] != lf {
			t.Fatalf("GroupsOf(%d) = %v, want [%d]", id, groups, lf)
		}
	}
	// Churn elsewhere must not move surviving members between leaves.
	if err := tr.Revoke(2); err != nil {
		t.Fatalf("Revoke: %v", err)
	}
	mustAdd(t, tr, 6)
	for _, id := range []uint32{1, 3, 4, 5} {
		if lf, _ := tr.LeafOf(id); lf != leafBefore[id] {
			t.Fatalf("user %d moved leaf %d → %d", id, leafBefore[id], lf)
		}
	}
	if tr.GroupsOf(2) != nil {
		t.Fatal("GroupsOf(revoked) != nil")
	}
	if tr.GroupsOf(99) != nil {
		t.Fatal("GroupsOf(non-member) != nil")
	}
}

func TestBulkBuilderEquivalence(t *testing.T) {
	ids := make([]uint32, 100)
	for i := range ids {
		ids[i] = uint32(i * 3)
	}
	tr, err := NewTreeWithMembers(Config{LeafCap: 4}, ids)
	if err != nil {
		t.Fatalf("NewTreeWithMembers: %v", err)
	}
	// The bulk build places members exactly where one Add each does.
	one := NewTree(Config{LeafCap: 4})
	for _, id := range ids {
		mustAdd(t, one, id)
	}
	if !bytes.Equal(tr.Encode(), one.Encode()) {
		t.Fatal("bulk-built tree differs from one built by Add")
	}
	// Incremental ops on a bulk-built tree keep working.
	if err := tr.Revoke(ids[50]); err != nil {
		t.Fatalf("Revoke: %v", err)
	}
	if leaf := mustAdd(t, tr, 1_000_000); leaf != 50/4 {
		t.Fatalf("Add(new) = leaf %d, want the revoked member's leaf %d", leaf, 50/4)
	}
	if _, err := NewTreeWithMembers(Config{}, []uint32{2, 2}); !errors.Is(err, ErrMemberExists) {
		t.Fatalf("duplicate bulk err = %v", err)
	}
	if empty, err := NewTreeWithMembers(Config{}, nil); err != nil || empty.Len() != 0 {
		t.Fatalf("empty bulk: %v len=%d", err, empty.Len())
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tr := NewTree(Config{LeafCap: 3})
	for id := uint32(1); id <= 23; id++ {
		mustAdd(t, tr, id)
	}
	if err := tr.Revoke(11); err != nil {
		t.Fatal(err)
	}
	enc := tr.Encode()
	got, err := DecodeTree(enc)
	if err != nil {
		t.Fatalf("DecodeTree: %v", err)
	}
	if got.Len() != tr.Len() || got.Leaves() != tr.Leaves() {
		t.Fatalf("decoded shape mismatch: len %d/%d leaves %d/%d",
			got.Len(), tr.Len(), got.Leaves(), tr.Leaves())
	}
	for id := uint32(1); id <= 23; id++ {
		leaf, ok := got.LeafOf(id)
		if want, wantOK := tr.LeafOf(id); leaf != want || ok != wantOK {
			t.Fatalf("decoded LeafOf(%d) = %d, %v, want %d, %v", id, leaf, ok, want, wantOK)
		}
	}
	if got.Contains(11) {
		t.Fatal("decoded tree contains revoked member")
	}
	if !bytes.Equal(got.Encode(), enc) {
		t.Fatal("re-encode differs")
	}
	// The decoded tree must remain fully operational. Its leaves share
	// one array: Add(500) refills leaf 1 in place, where the revocation
	// left room, and Add(501) grows leaf 3, decoded with two members;
	// neither may overwrite a neighbouring leaf.
	if err := got.Revoke(5); err != nil {
		t.Fatalf("decoded Revoke: %v", err)
	}
	if leaf := mustAdd(t, got, 500); leaf != 1 {
		t.Fatalf("Add(500) = leaf %d, want 1", leaf)
	}
	if leaf := mustAdd(t, got, 501); leaf != 3 {
		t.Fatalf("Add(501) = leaf %d, want 3", leaf)
	}
	for leaf, want := range map[uint32][]uint32{1: {4, 6, 500}, 2: {7, 8, 9}, 3: {10, 12, 501}, 4: {13, 14, 15}} {
		if ms := got.Members(leaf); !slices.Equal(ms, want) {
			t.Fatalf("Members(%d) = %v, want %v", leaf, ms, want)
		}
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	tr := NewTree(Config{LeafCap: 2})
	for id := uint32(1); id <= 5; id++ {
		mustAdd(t, tr, id)
	}
	good := tr.Encode()
	cases := map[string][]byte{
		"empty":            {},
		"bad format":       append([]byte{99}, good[1:]...),
		"truncated":        good[:len(good)/2],
		"trailing garbage": append(bytes.Clone(good), 0xAA),
	}
	for name, data := range cases {
		if _, err := DecodeTree(data); err == nil {
			t.Fatalf("%s: decode accepted malformed input", name)
		}
	}
	// Structured corruption: a leaf cap of zero, a leaf count the bytes
	// cannot hold, a leaf over its cap, a member listed twice.
	bad := func(at int, v uint32) []byte {
		b := bytes.Clone(good)
		binary.LittleEndian.PutUint32(b[at:], v)
		return b
	}
	const leafCountAt, firstLeafAt = 5, 9
	for name, data := range map[string][]byte{
		"zero leafCap":        bad(1, 0),
		"leafCap over bound":  bad(1, maxLeafCap+1),
		"leaf count too big":  bad(leafCountAt, 1<<20),
		"leaf over its cap":   bad(firstLeafAt, 3),
		"duplicate member id": bad(firstLeafAt+8, 1),
	} {
		if _, err := DecodeTree(data); !errors.Is(err, ErrMalformed) {
			t.Fatalf("%s: err = %v, want ErrMalformed", name, err)
		}
	}
}
