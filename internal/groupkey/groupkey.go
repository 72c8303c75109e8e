// Package groupkey keeps the volume's member list: member IDs in
// append-only leaf subgroups of at most LeafCap members. A leaf's index
// is a stable subgroup ID, so dirnode ACL entries may grant rights to a
// whole leaf (acl.GroupEntryID) and the grant keeps meaning across churn
// in other leaves.
//
// The tree is owner-side state, serialized into the sealed supernode by
// internal/metadata, and the volume's one member list: the supernode's
// user table stores a name and key per member in the tree's ID order
// (IDs) and no ID of its own, and its AddUser and RemoveUser are what
// call Add and Revoke.
//
// The tree holds no key material. Revocation is the supernode's
// re-encryption under the rootkey, which never leaves an enclave, and an
// enclave admits only the identities the user table lists (DESIGN.md
// §13), so no per-member key has anything to protect.
package groupkey

import (
	"errors"
	"fmt"
	"slices"
)

// DefaultLeafCap caps members per leaf subgroup when Config.LeafCap is
// zero.
const DefaultLeafCap = 32

// Decode bounds (the serialized form is attacker-adjacent only via the
// sealed supernode, but the fuzz target treats it as hostile).
const (
	maxLeafCap = 4096
	maxLeaves  = 1 << 21
)

// Errors.
var (
	// ErrMemberExists reports adding a user already in the group.
	ErrMemberExists = errors.New("groupkey: member already present")
	// ErrUnknownMember reports an operation on a user not in the group.
	ErrUnknownMember = errors.New("groupkey: unknown member")
	// ErrMalformed reports an undecodable serialized tree.
	ErrMalformed = errors.New("groupkey: malformed tree encoding")
	// ErrUnsupportedLayout reports a tree in a retired layout, which is
	// not decoded or migrated.
	ErrUnsupportedLayout = errors.New("groupkey: retired tree layout")
)

// Config parameterizes a tree. Zero values take the defaults.
type Config struct {
	// LeafCap caps members per leaf subgroup (default 32).
	LeafCap int
}

// Stats is what the benchmark harness reads of a tree.
type Stats struct {
	// Wraps is always 0: the tree wraps no keys. It stays only because
	// the benchmark harness still reads it; it goes once it stops.
	Wraps int64
}

// Tree is the member list in leaf subgroups. It is not safe for
// concurrent use; callers (the enclave, the benchmark) serialize access.
type Tree struct {
	leafCap int
	// leaves[i] lists leaf subgroup i's member IDs in enrollment order;
	// leaves are append-only so the index is a stable subgroup ID.
	leaves [][]uint32
	// users maps a member ID to its leaf index.
	users map[uint32]uint32
}

// NewTree creates an empty tree.
func NewTree(cfg Config) *Tree {
	if cfg.LeafCap <= 0 {
		cfg.LeafCap = DefaultLeafCap
	}
	return &Tree{leafCap: cfg.LeafCap, users: make(map[uint32]uint32)}
}

// Len returns the number of members.
func (t *Tree) Len() int { return len(t.users) }

// Leaves returns the number of leaf subgroups (stable IDs 0..Leaves-1).
func (t *Tree) Leaves() int { return len(t.leaves) }

// Contains reports membership.
func (t *Tree) Contains(userID uint32) bool {
	_, ok := t.users[userID]
	return ok
}

// LeafOf returns the stable leaf subgroup ID holding the user.
func (t *Tree) LeafOf(userID uint32) (uint32, bool) {
	leaf, ok := t.users[userID]
	return leaf, ok
}

// GroupsOf returns the subgroup IDs the user's rights resolve through
// (nil for non-members). Only leaf subgroups have stable identities,
// so that is what ACL group entries may name.
func (t *Tree) GroupsOf(userID uint32) []uint32 {
	leaf, ok := t.users[userID]
	if !ok {
		return nil
	}
	return []uint32{leaf}
}

// Members returns the member IDs of one leaf subgroup, in enrollment
// order.
func (t *Tree) Members(leaf uint32) []uint32 {
	if int(leaf) >= len(t.leaves) {
		return nil
	}
	return slices.Clone(t.leaves[leaf])
}

// IDs returns every member's ID in ascending order.
func (t *Tree) IDs() []uint32 {
	ids := make([]uint32, 0, len(t.users))
	for id := range t.users {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// Stats returns the meters the benchmark harness reads.
func (t *Tree) Stats() Stats { return Stats{} }

// Add enrolls a user into the sparsest leaf subgroup, appending a new
// leaf when all are full, and returns that leaf.
func (t *Tree) Add(userID uint32) (uint32, error) {
	if t.Contains(userID) {
		return 0, fmt.Errorf("%w: user %d", ErrMemberExists, userID)
	}
	li := t.sparsestLeaf()
	if li < 0 {
		if len(t.leaves) >= maxLeaves {
			return 0, fmt.Errorf("groupkey: leaf limit reached")
		}
		li = len(t.leaves)
		t.leaves = append(t.leaves, nil)
	}
	t.leaves[li] = append(t.leaves[li], userID)
	t.users[userID] = uint32(li)
	return uint32(li), nil
}

// Revoke evicts a user from its leaf. The other members keep their
// leaves.
func (t *Tree) Revoke(userID uint32) error {
	li, ok := t.users[userID]
	if !ok {
		return fmt.Errorf("%w: user %d", ErrUnknownMember, userID)
	}
	t.leaves[li] = slices.DeleteFunc(t.leaves[li], func(id uint32) bool { return id == userID })
	delete(t.users, userID)
	return nil
}

// sparsestLeaf returns the least-populated leaf with spare capacity, or
// -1 when every leaf is full (or none exists).
func (t *Tree) sparsestLeaf() int {
	best, bestLen := -1, 0
	for i, ms := range t.leaves {
		if len(ms) >= t.leafCap {
			continue
		}
		if best < 0 || len(ms) < bestLen {
			best, bestLen = i, len(ms)
		}
	}
	return best
}
