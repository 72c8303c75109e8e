package groupkey

import (
	"slices"
	"testing"

	"nexus/internal/acl"
)

// The adversarial model at this layer: the evicted user keeps the ID it
// had and knows the leaf it was in, and a directory may still grant that
// leaf rights. After Revoke nothing of the tree may resolve those rights
// for it — neither the live tree nor the one the supernode stores after
// the revocation — while every survivor keeps its leaf and so the grant.
// That the evicted user's mount fails is the enclave's to show: it admits
// only the identities the user table lists (internal/enclave,
// TestRevokedUserCannotAuth).
func TestAdversarialRevocation(t *testing.T) {
	tr := NewTree(Config{LeafCap: 4})
	for id := uint32(1); id <= 32; id++ {
		mustAdd(t, tr, id)
	}
	const victim = 13
	victimLeaf, _ := tr.LeafOf(victim)
	var grant acl.List
	grant.Set(acl.GroupEntryID(victimLeaf), acl.ReadWrite)
	if got := grant.ResolveRights(victim, tr.GroupsOf(victim)); got != acl.ReadWrite {
		t.Fatalf("before the revocation the leaf grant resolves %v for the victim", got)
	}
	leafBefore := make(map[uint32]uint32)
	for id := uint32(1); id <= 32; id++ {
		leafBefore[id], _ = tr.LeafOf(id)
	}

	if err := tr.Revoke(victim); err != nil {
		t.Fatalf("Revoke: %v", err)
	}
	stored, err := DecodeTree(tr.Encode())
	if err != nil {
		t.Fatal(err)
	}
	for name, tree := range map[string]*Tree{"live": tr, "stored": stored} {
		if tree.Contains(victim) || tree.GroupsOf(victim) != nil || slices.Contains(tree.Members(victimLeaf), victim) {
			t.Fatalf("%s tree: the victim is still a member", name)
		}
		if got := grant.ResolveRights(victim, tree.GroupsOf(victim)); got != acl.None {
			t.Fatalf("%s tree: the victim's former leaf grant resolves %v for it", name, got)
		}
		for id, leaf := range leafBefore {
			if id == victim {
				continue
			}
			if got, ok := tree.LeafOf(id); !ok || got != leaf {
				t.Fatalf("%s tree: survivor %d moved from leaf %d to %d (%v)", name, id, leaf, got, ok)
			}
			want := acl.None
			if leaf == victimLeaf {
				want = acl.ReadWrite
			}
			if got := grant.ResolveRights(id, tree.GroupsOf(id)); got != want {
				t.Fatalf("%s tree: survivor %d resolves %v, want %v", name, id, got, want)
			}
		}
	}
}
