package enclave

// Subgroup key tree wiring (DESIGN.md §13). The sealed supernode's
// groupkey.Tree is its one member list: metadata.Supernode.AddUser
// enrolls the identity into the sparsest leaf subgroup, RemoveUser
// rotates the evicted user's leaf-to-root path (O(log n) wraps instead of
// the flat table's O(n)), and CompleteAuth verifies the member's wrap
// chain still reaches the current root. The enclave meters the wraps
// around those calls. Dirnode ACLs may grant rights to whole leaf
// subgroups (acl.GroupIDFlag entries), which resolve through the tree at
// check time.
//
// Tree mutations ride the supernode flush: the admin operation re-reads
// the supernode, applies the change and puts it back in one commit under
// the freshness root's lock, the one that also drains any deferred
// metadata (updateSupernodeLocked) — one supernode put, one root update.

import (
	"fmt"

	"nexus/internal/acl"
)

// meterGroupLocked runs fn, a call that works the key tree — a
// supernode change or an authentication — and folds the tree-stats delta
// it made into the registry counters (enclave_groupkey_wraps_total etc.).
func (e *Enclave) meterGroupLocked(fn func() error) error {
	tree := e.super.GroupTree
	before := tree.Stats()
	err := fn()
	after := tree.Stats()
	e.metrics.groupWraps.Add(after.Wraps - before.Wraps)
	e.metrics.groupWrapBytes.Add(after.WrapBytes - before.WrapBytes)
	e.metrics.groupUnwraps.Add(after.Unwraps - before.Unwraps)
	return err
}

// UserGroup returns the stable leaf subgroup ID the named user belongs
// to, for granting ACL rights to that subgroup via SetGroupACL.
func (e *Enclave) UserGroup(userName string) (leaf uint32, err error) {
	err = e.ecall(needAuth, func() error {
		u, err := e.super.FindUserByName(userName)
		if err != nil {
			return err
		}
		leaf, _ = e.super.GroupTree.LeafOf(u.ID) // every user is a member
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
