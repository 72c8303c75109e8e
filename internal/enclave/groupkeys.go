package enclave

// Subgroup key tree wiring (DESIGN.md §13). The enclave maintains a
// groupkey.Tree over the volume membership inside the sealed supernode:
// AddUser enrolls the identity into the sparsest leaf subgroup,
// RemoveUser rotates the evicted user's leaf-to-root path (O(log n)
// wraps instead of the flat table's O(n)), and CompleteAuth verifies the
// member's wrap chain still reaches the current root. Dirnode ACLs may
// grant rights to whole leaf subgroups (acl.GroupIDFlag entries), which
// resolve through the tree at check time.
//
// Tree mutations ride the supernode flush: the admin operation re-reads
// the supernode, applies the change and puts it back in one commit under
// the freshness root's lock, the one that also drains any deferred
// metadata (updateSupernodeLocked) — one supernode put, one root update.

import (
	"fmt"

	"nexus/internal/acl"
	"nexus/internal/groupkey"
	"nexus/internal/metadata"
)

// groupAddLocked enrolls a just-admitted user into the key tree and meters
// the wrap work. AddUser, GrantAccess and GrantAccessMutual call it, in the
// commit that adds the user to the table; a user already enrolled (an
// exchange made again) is left as it is.
func (e *Enclave) groupAddLocked(userID uint32) error {
	tree := e.super.GroupTree
	before := tree.Stats()
	if !tree.Contains(userID) {
		if _, err := tree.Add(userID); err != nil {
			return fmt.Errorf("enclave: enrolling user in key tree: %w", err)
		}
	}
	e.recordGroupStatsLocked(tree, before)
	return nil
}

// groupRevokeLocked rotates the evicted user's path keys. Every identity
// in the user table is a member of the tree, so one that is not is an
// error, never a revocation that rotates nothing.
func (e *Enclave) groupRevokeLocked(userID uint32) error {
	tree := e.super.GroupTree
	before := tree.Stats()
	if err := tree.Revoke(userID); err != nil {
		return fmt.Errorf("enclave: revoking user %d from key tree: %w", userID, err)
	}
	e.recordGroupStatsLocked(tree, before)
	return nil
}

// groupAuthenticateLocked verifies the authenticating member's wrap
// chain reaches the current root (the §IV-B challenge–response gains a
// tree-membership proof). An identity outside the tree fails.
func (e *Enclave) groupAuthenticateLocked(userID uint32) error {
	tree := e.super.GroupTree
	before := tree.Stats()
	if err := tree.Authenticate(userID); err != nil {
		return fmt.Errorf("%w: key-tree path stale for user %d", ErrBadAuth, userID)
	}
	e.recordGroupStatsLocked(tree, before)
	return nil
}

// recordGroupStatsLocked folds a tree-stats delta into the registry
// counters (enclave_groupkey_wraps_total etc.).
func (e *Enclave) recordGroupStatsLocked(tree *groupkey.Tree, before groupkey.Stats) {
	after := tree.Stats()
	if d := after.Wraps - before.Wraps; d > 0 {
		e.metrics.groupWraps.Add(d)
	}
	if d := after.WrapBytes - before.WrapBytes; d > 0 {
		e.metrics.groupWrapBytes.Add(d)
	}
	if d := after.Unwraps - before.Unwraps; d > 0 {
		e.metrics.groupUnwraps.Add(d)
	}
}

// UserGroup returns the stable leaf subgroup ID the named user belongs
// to, for granting ACL rights to that subgroup via SetGroupACL.
func (e *Enclave) UserGroup(userName string) (leaf uint32, err error) {
	err = e.ecall(needAuth, func() error {
		u, err := e.super.FindUserByName(userName)
		if err != nil {
			return err
		}
		lf, ok := e.super.GroupTree.LeafOf(u.ID)
		if !ok {
			return fmt.Errorf("%w: user %q not enrolled in the key tree", metadata.ErrUserNotFound, userName)
		}
		leaf = lf
		return nil
	})
	if err != nil {
		return 0, err
	}
	return leaf, nil
}

// SetGroupACL grants (or with acl.None revokes) rights on a directory
// to an entire leaf subgroup of the membership key tree. Rights resolve
// at check time through the tree, so subgroup churn needs no ACL
// rewrite. Authorization and cost are SetACL's: owner or Administer,
// one directory re-seal.
func (e *Enclave) SetGroupACL(dirPath string, leaf uint32, rights acl.Rights) error {
	return e.ecall(needAuth, func() error {
		return e.setACLEntryLocked(dirPath, rights, func() (uint32, error) {
			if n := e.super.GroupTree.Leaves(); int(leaf) >= n {
				return 0, fmt.Errorf("enclave: no leaf subgroup %d (tree has %d)", leaf, n)
			}
			return acl.GroupEntryID(leaf), nil
		})
	})
}
