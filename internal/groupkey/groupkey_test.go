package groupkey

import (
	"bytes"
	"errors"
	"testing"
)

func mustAdd(t *testing.T, tr *Tree, id uint32) []byte {
	t.Helper()
	secret, err := tr.Add(id)
	if err != nil {
		t.Fatalf("Add(%d): %v", id, err)
	}
	return secret
}

func TestTreeAddAuthenticate(t *testing.T) {
	tr := NewTree(Config{LeafCap: 4, Fanout: 2})
	for id := uint32(1); id <= 40; id++ {
		mustAdd(t, tr, id)
	}
	if tr.Len() != 40 {
		t.Fatalf("Len = %d, want 40", tr.Len())
	}
	for id := uint32(1); id <= 40; id++ {
		if !tr.Contains(id) {
			t.Fatalf("Contains(%d) = false", id)
		}
		if err := tr.Authenticate(id); err != nil {
			t.Fatalf("Authenticate(%d): %v", id, err)
		}
		root, err := tr.MemberRoot(id)
		if err != nil {
			t.Fatalf("MemberRoot(%d): %v", id, err)
		}
		if !bytes.Equal(root, tr.RootSecret()) {
			t.Fatalf("MemberRoot(%d) != RootSecret", id)
		}
	}
	// 40 users at LeafCap 4 → 10 leaves, all full before a new leaf opens.
	if tr.Leaves() != 10 {
		t.Fatalf("Leaves = %d, want 10", tr.Leaves())
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
	if _, err := tr.Secret(99); !errors.Is(err, ErrUnknownMember) {
		t.Fatalf("unknown Secret err = %v, want ErrUnknownMember", err)
	}
	if _, err := tr.MemberRoot(99); !errors.Is(err, ErrUnknownMember) {
		t.Fatalf("unknown MemberRoot err = %v, want ErrUnknownMember", err)
	}
}

func TestTreeRevokeRotatesRootAndEpoch(t *testing.T) {
	tr := NewTree(Config{LeafCap: 2, Fanout: 2})
	for id := uint32(1); id <= 8; id++ {
		mustAdd(t, tr, id)
	}
	beforeRoot := tr.RootSecret()
	beforeEpoch := tr.Epoch()
	if err := tr.Revoke(3); err != nil {
		t.Fatalf("Revoke: %v", err)
	}
	if tr.Contains(3) {
		t.Fatal("revoked user still a member")
	}
	if bytes.Equal(beforeRoot, tr.RootSecret()) {
		t.Fatal("root secret unchanged after revoke")
	}
	if tr.Epoch() != beforeEpoch+1 {
		t.Fatalf("epoch = %d, want %d", tr.Epoch(), beforeEpoch+1)
	}
	// Everyone else still authenticates against the fresh root.
	for _, id := range []uint32{1, 2, 4, 5, 6, 7, 8} {
		if err := tr.Authenticate(id); err != nil {
			t.Fatalf("Authenticate(%d) post-revoke: %v", id, err)
		}
	}
}

func TestTreeSparsestLeafPlacement(t *testing.T) {
	tr := NewTree(Config{LeafCap: 2, Fanout: 2})
	for id := uint32(1); id <= 6; id++ {
		mustAdd(t, tr, id)
	}
	// Leaves fill in order: {1,2} {3,4} {5,6}. Revoking 3 leaves leaf 1
	// the sparsest; the next add must land there.
	if err := tr.Revoke(3); err != nil {
		t.Fatalf("Revoke: %v", err)
	}
	mustAdd(t, tr, 7)
	leaf, ok := tr.LeafOf(7)
	if !ok || leaf != 1 {
		t.Fatalf("LeafOf(7) = %d,%v, want leaf 1", leaf, ok)
	}
	if got := tr.Members(1); len(got) != 2 || got[0] != 4 || got[1] != 7 {
		t.Fatalf("Members(1) = %v, want [4 7]", got)
	}
}

func TestTreeGroupsOfAndLeafStability(t *testing.T) {
	tr := NewTree(Config{LeafCap: 2, Fanout: 2})
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

func TestTreeWrapCountLogarithmic(t *testing.T) {
	// A revocation rewraps ≤ LeafCap member wraps plus ≤ Fanout child
	// wraps per interior level: LeafCap + Fanout·ceil(log_F(leaves)).
	tr := NewTree(Config{LeafCap: 8, Fanout: 4})
	ids := make([]uint32, 4096)
	for i := range ids {
		ids[i] = uint32(i + 1)
	}
	tr2, err := NewTreeWithMembers(Config{LeafCap: 8, Fanout: 4}, ids)
	if err != nil {
		t.Fatalf("NewTreeWithMembers: %v", err)
	}
	tr = tr2
	levels := len(tr.levels)
	bound := int64(8 + 4*(levels-1))
	for _, victim := range []uint32{1, 2000, 4096} {
		before := tr.Stats().Wraps
		if err := tr.Revoke(victim); err != nil {
			t.Fatalf("Revoke(%d): %v", victim, err)
		}
		if got := tr.Stats().Wraps - before; got > bound {
			t.Fatalf("Revoke(%d) wraps = %d, want ≤ %d (levels=%d)", victim, got, bound, levels)
		}
	}
}

func TestBulkBuilderEquivalence(t *testing.T) {
	ids := make([]uint32, 100)
	for i := range ids {
		ids[i] = uint32(i * 3)
	}
	tr, err := NewTreeWithMembers(Config{LeafCap: 4, Fanout: 2}, ids)
	if err != nil {
		t.Fatalf("NewTreeWithMembers: %v", err)
	}
	if tr.Len() != 100 {
		t.Fatalf("Len = %d", tr.Len())
	}
	for _, id := range ids {
		if err := tr.Authenticate(id); err != nil {
			t.Fatalf("bulk Authenticate(%d): %v", id, err)
		}
	}
	// Incremental ops on a bulk-built tree keep working.
	if err := tr.Revoke(ids[50]); err != nil {
		t.Fatalf("Revoke: %v", err)
	}
	mustAdd(t, tr, 1_000_000)
	if err := tr.Authenticate(1_000_000); err != nil {
		t.Fatalf("Authenticate(new): %v", err)
	}
	if _, err := NewTreeWithMembers(Config{}, []uint32{2, 2}); !errors.Is(err, ErrMemberExists) {
		t.Fatalf("duplicate bulk err = %v", err)
	}
	if empty, err := NewTreeWithMembers(Config{}, nil); err != nil || empty.Len() != 0 {
		t.Fatalf("empty bulk: %v len=%d", err, empty.Len())
	}
}

func TestDirKeyMaterialRotates(t *testing.T) {
	tr := NewTree(Config{})
	if tr.DirKeyMaterial([]byte("d1")) != nil {
		t.Fatal("empty tree should have no dir key material")
	}
	if tr.RootSecret() != nil {
		t.Fatal("empty tree should have no root secret")
	}
	mustAdd(t, tr, 1)
	d1 := tr.DirKeyMaterial([]byte("d1"))
	d2 := tr.DirKeyMaterial([]byte("d2"))
	if len(d1) != 32 || bytes.Equal(d1, d2) {
		t.Fatal("dir key material must be per-directory")
	}
	mustAdd(t, tr, 2)
	if bytes.Equal(d1, tr.DirKeyMaterial([]byte("d1"))) {
		t.Fatal("dir key material must rotate with the root")
	}
}

func TestUnwrapPathRejectsTamper(t *testing.T) {
	tr := NewTree(Config{LeafCap: 2, Fanout: 2})
	for id := uint32(1); id <= 6; id++ {
		mustAdd(t, tr, id)
	}
	secret, err := tr.Secret(4)
	if err != nil {
		t.Fatal(err)
	}
	wraps, ok := tr.PathWraps(4)
	if !ok || len(wraps) < 2 {
		t.Fatalf("PathWraps = %v,%v", wraps, ok)
	}
	if _, err := UnwrapPath(secret, wraps); err != nil {
		t.Fatalf("honest UnwrapPath: %v", err)
	}
	// Bit-flip each blob in turn: the chain must fail closed.
	for i := range wraps {
		mut := make([]WrappedKey, len(wraps))
		copy(mut, wraps)
		blob := bytes.Clone(wraps[i].Blob)
		blob[len(blob)/2] ^= 0x80
		mut[i].Blob = blob
		if _, err := UnwrapPath(secret, mut); !errors.Is(err, ErrUnwrap) {
			t.Fatalf("tampered blob %d: err = %v, want ErrUnwrap", i, err)
		}
	}
	// A wrap transplanted to a different position fails via the AAD.
	mut := make([]WrappedKey, len(wraps))
	copy(mut, wraps)
	mut[0].Child = 999
	if _, err := UnwrapPath(secret, mut); !errors.Is(err, ErrUnwrap) {
		t.Fatalf("transplanted blob: err = %v, want ErrUnwrap", err)
	}
	if _, err := UnwrapPath(secret, nil); !errors.Is(err, ErrUnwrap) {
		t.Fatalf("empty chain: err = %v, want ErrUnwrap", err)
	}
	if _, ok := tr.PathWraps(99); ok {
		t.Fatal("PathWraps(non-member) should report !ok")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tr := NewTree(Config{LeafCap: 3, Fanout: 2})
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
	if got.Len() != tr.Len() || got.Epoch() != tr.Epoch() || got.Leaves() != tr.Leaves() {
		t.Fatalf("decoded shape mismatch: len %d/%d epoch %d/%d leaves %d/%d",
			got.Len(), tr.Len(), got.Epoch(), tr.Epoch(), got.Leaves(), tr.Leaves())
	}
	if !bytes.Equal(got.RootSecret(), tr.RootSecret()) {
		t.Fatal("decoded root secret differs")
	}
	for id := uint32(1); id <= 23; id++ {
		if id == 11 {
			if got.Contains(id) {
				t.Fatal("decoded tree contains revoked member")
			}
			continue
		}
		if err := got.Authenticate(id); err != nil {
			t.Fatalf("decoded Authenticate(%d): %v", id, err)
		}
	}
	if !bytes.Equal(got.Encode(), enc) {
		t.Fatal("re-encode differs")
	}
	// The decoded tree must remain fully operational.
	if err := got.Revoke(5); err != nil {
		t.Fatalf("decoded Revoke: %v", err)
	}
	mustAdd(t, got, 500)
}

func TestDecodeRejectsMalformed(t *testing.T) {
	tr := NewTree(Config{LeafCap: 2, Fanout: 2})
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
	// Structured corruption: leaf cap of zero.
	bad := bytes.Clone(good)
	bad[1], bad[2], bad[3], bad[4] = 0, 0, 0, 0
	if _, err := DecodeTree(bad); !errors.Is(err, ErrMalformed) {
		t.Fatalf("zero leafCap: err = %v, want ErrMalformed", err)
	}
}
