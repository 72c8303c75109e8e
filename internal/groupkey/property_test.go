package groupkey

import (
	"os"
	"slices"
	"strconv"
	"testing"

	"nexus/internal/acl"
	"nexus/internal/netsim"
)

// propertySeed returns the operation-sequence seed, overridable via
// NEXUS_GROUPKEY_SEED so a failure replays exactly, mirroring the chaos
// suite's NEXUS_CHAOS_SEED convention.
func propertySeed(t *testing.T) int64 {
	t.Helper()
	env := os.Getenv("NEXUS_GROUPKEY_SEED")
	if env == "" {
		return 1
	}
	seed, err := strconv.ParseInt(env, 10, 64)
	if err != nil {
		t.Fatalf("NEXUS_GROUPKEY_SEED=%q: %v", env, err)
	}
	return seed
}

// oracle is the trivially correct model: a membership set with, per
// member, the leaf it was assigned at add time (leaf assignments must be
// stable until revocation).
type oracle struct {
	members map[uint32]uint32 // id → leaf at add time
}

// TestPropertyTreeVsOracle drives a random add/revoke/re-add sequence
// against the tree and the model oracle, asserting after every step that
// membership, leaf stability, the encoding's round trip and ACL
// group-rights resolution agree. Replay a failure with
// NEXUS_GROUPKEY_SEED=<seed>.
func TestPropertyTreeVsOracle(t *testing.T) {
	seed := propertySeed(t)
	rng := netsim.NewRand(seed)
	t.Logf("groupkey property seed %d (replay: NEXUS_GROUPKEY_SEED=%d)", seed, seed)

	tr := NewTree(Config{LeafCap: 3})
	or := &oracle{members: make(map[uint32]uint32)}

	const (
		steps   = 400
		idSpace = 60 // small space forces add/revoke/re-add collisions
	)
	for step := 0; step < steps; step++ {
		id := uint32(1 + rng.Intn(idSpace))
		if rng.Intn(100) < 55 || len(or.members) == 0 {
			// Add (may collide with an existing member).
			leaf, err := tr.Add(id)
			_, exists := or.members[id]
			if exists {
				if err == nil {
					t.Fatalf("step %d: duplicate add of %d accepted", step, id)
				}
			} else {
				if err != nil {
					t.Fatalf("step %d: add of %d failed: %v", step, id, err)
				}
				if at, ok := tr.LeafOf(id); !ok || at != leaf {
					t.Fatalf("step %d: added %d to leaf %d, LeafOf = %d, %v", step, id, leaf, at, ok)
				}
				or.members[id] = leaf
			}
		} else {
			// Revoke a random id (may or may not be a member).
			err := tr.Revoke(id)
			if _, exists := or.members[id]; exists {
				if err != nil {
					t.Fatalf("step %d: revoke of %d failed: %v", step, id, err)
				}
				delete(or.members, id)
			} else if err == nil {
				t.Fatalf("step %d: revoke of non-member %d accepted", step, id)
			}
		}
		checkAgainstOracle(t, step, tr, or, rng)
	}
}

func checkAgainstOracle(t *testing.T, step int, tr *Tree, or *oracle, rng *netsim.Rand) {
	t.Helper()
	if tr.Len() != len(or.members) {
		t.Fatalf("step %d: len tree=%d oracle=%d", step, tr.Len(), len(or.members))
	}
	for id, leafAtAdd := range or.members {
		if !tr.Contains(id) {
			t.Fatalf("step %d: oracle member %d missing from tree", step, id)
		}
		// Leaf stability: the assignment made at add time holds.
		if leaf, _ := tr.LeafOf(id); leaf != leafAtAdd {
			t.Fatalf("step %d: member %d moved leaf %d → %d", step, id, leafAtAdd, leaf)
		}
	}
	// Non-members must fail membership.
	for probeID := uint32(1); probeID <= 3; probeID++ {
		id := uint32(1 + rng.Intn(200))
		_, isMember := or.members[id]
		if tr.Contains(id) != isMember {
			t.Fatalf("step %d: Contains(%d) disagrees with oracle (%v)", step, id, isMember)
		}
	}
	// The stored tree is the live one (every 25th step: a decode is O(n)).
	if step%25 == 0 {
		got, err := DecodeTree(tr.Encode())
		if err != nil {
			t.Fatalf("step %d: decoding the encoded tree: %v", step, err)
		}
		if !slices.Equal(got.IDs(), tr.IDs()) || got.Leaves() != tr.Leaves() {
			t.Fatalf("step %d: the decoded tree lists %v in %d leaves, the live one %v in %d", step, got.IDs(), got.Leaves(), tr.IDs(), tr.Leaves())
		}
		for id, leaf := range or.members {
			if at, _ := got.LeafOf(id); at != leaf {
				t.Fatalf("step %d: decoded member %d in leaf %d, want %d", step, id, at, leaf)
			}
		}
	}
	checkRightsResolution(t, step, tr, or, rng)
}

// checkRightsResolution asserts ACL group-entry resolution through the
// tree matches what direct per-user entries would grant: a group grant
// on a member's leaf confers the rights, and grants on other leaves (or
// to non-members) confer nothing.
func checkRightsResolution(t *testing.T, step int, tr *Tree, or *oracle, rng *netsim.Rand) {
	t.Helper()
	if len(or.members) == 0 || tr.Leaves() == 0 {
		return
	}
	ids := make([]uint32, 0, len(or.members))
	for id := range or.members {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	subject := ids[rng.Intn(len(ids))]
	leaf, _ := tr.LeafOf(subject)

	var l acl.List
	l.Set(acl.GroupEntryID(leaf), acl.ReadOnly)
	otherLeaf := uint32(tr.Leaves()) // beyond any real leaf
	l.Set(acl.GroupEntryID(otherLeaf), acl.All)

	groups := tr.GroupsOf(subject)
	if got := l.ResolveRights(subject, groups); got != acl.ReadOnly {
		t.Fatalf("step %d: member %d of leaf %d resolved %v, want ReadOnly", step, subject, leaf, got)
	}
	if !l.CheckGroups(subject, false, groups, acl.Read) {
		t.Fatalf("step %d: group grant did not confer Read", step)
	}
	if l.CheckGroups(subject, false, groups, acl.Write) {
		t.Fatalf("step %d: member gained Write from an unrelated leaf's grant", step)
	}
	// A direct user entry unions with the group grant.
	l.Set(subject, acl.Rights(acl.Insert))
	if got := l.ResolveRights(subject, groups); got != acl.ReadOnly|acl.Insert {
		t.Fatalf("step %d: union of direct+group = %v", step, got)
	}
	// Non-members resolve nothing through groups.
	nonMember := uint32(10_000)
	if got := l.ResolveRights(nonMember, tr.GroupsOf(nonMember)); got != acl.None {
		t.Fatalf("step %d: non-member resolved %v", step, got)
	}
}
