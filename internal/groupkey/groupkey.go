// Package groupkey implements a subgroup key tree over volume
// membership, the logical-key-hierarchy construction IBBE-SGX applies
// to enclave-managed group keying: users are partitioned into
// fixed-capacity leaf subgroups, every tree node carries a symmetric
// key, a leaf key is wrapped individually for each of its members, and
// each interior key is wrapped under each of its children's keys. A
// member therefore recovers the root secret by chaining one unwrap per
// tree level, and revoking a member rotates only the keys on its
// leaf-to-root path — O(LeafCap + Fanout·log n) wrap operations instead
// of the O(n) full re-wrap (n−1 wraps) a single flat group key costs.
//
// The tree is owner-side state, serialized into the sealed supernode by
// internal/metadata, and the volume's one member list: the supernode's
// user table stores a name and key per member in the tree's ID order
// (IDs) and no ID of its own, and its AddUser and RemoveUser are what
// call Add and Revoke. The tree stores only what it cannot recompute:
// the node keys, a tree seed, and each member's ID and join epoch. A
// member's secret is derived from the seed, and the wraps are derived
// from the keys: a rotation makes the wraps it changes, and a decoded
// tree makes a member's path on first use. Every enclave that opens the
// supernode sees every node key, so a stored secret or wrap would add
// nothing the seal does not already give. PathWraps exposes a path's
// wraps so tests can model an adversary replaying captured ciphertexts.
//
// Every membership change bumps the epoch and rotates the affected
// path, so a freshly added (or re-added) member only ever receives
// wraps of post-join keys, and a revoked member's cached keys unwrap
// nothing rotated after its eviction.
package groupkey

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// KeySize is the size of every node key and member secret.
const KeySize = 32

// wrapLen is the exact length of a wrap blob: 12-byte GCM nonce, the
// KeySize payload, and the 16-byte tag.
const wrapLen = 12 + KeySize + 16

// Defaults for Config.
const (
	// DefaultLeafCap caps members per leaf subgroup.
	DefaultLeafCap = 32
	// DefaultFanout is the interior node fanout.
	DefaultFanout = 8
)

// Decode bounds (the serialized form is attacker-adjacent only via the
// sealed supernode, but the fuzz target treats it as hostile).
const (
	maxLeafCap = 4096
	maxFanout  = 4096
	maxLeaves  = 1 << 21
)

// Errors.
var (
	// ErrMemberExists reports adding a user already in the group.
	ErrMemberExists = errors.New("groupkey: member already present")
	// ErrUnknownMember reports an operation on a user not in the group.
	ErrUnknownMember = errors.New("groupkey: unknown member")
	// ErrUnwrap reports a wrap blob that does not open under the given
	// secret — the revoked-member outcome.
	ErrUnwrap = errors.New("groupkey: key unwrap failed")
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
	// Fanout is the interior node fanout (default 8).
	Fanout int
}

func (c Config) withDefaults() Config {
	if c.LeafCap <= 0 {
		c.LeafCap = DefaultLeafCap
	}
	if c.Fanout < 2 {
		c.Fanout = DefaultFanout
	}
	return c
}

// Stats meters the wrap work the revocation benchmark reports.
type Stats struct {
	// Wraps counts the AES key wraps rotations made (Add, Revoke). The
	// wraps a decoded or bulk-built tree makes on first use re-derive
	// state the tree already has and are not counted.
	Wraps int64
	// WrapBytes totals the wrap-blob bytes rotations made.
	WrapBytes int64
	// Unwraps counts unwrap operations (the authenticate path).
	Unwraps int64
}

// member is one enrolled user in a leaf subgroup. Only id and joined
// are stored; secret and wrap are derived, nil until first use.
type member struct {
	id     uint32
	joined uint64 // the epoch Add enrolled it at
	secret []byte // per-member KEK (secretOf)
	wrap   []byte // leaf key wrapped under secret
}

// node is one tree position. Leaves (level 0) carry member wraps in
// their leaf's member list instead of childWraps.
type node struct {
	key []byte
	// childWraps[j] is this node's key wrapped under child j's key
	// (interior nodes only). A decoded node has none until a path
	// through it is first used (fillPath).
	childWraps [][]byte
}

// Tree is the subgroup key tree. It is not safe for concurrent use;
// callers (the enclave, the benchmark) serialize access.
type Tree struct {
	leafCap int
	fanout  int
	epoch   uint64
	// seed derives every member secret (secretOf).
	seed []byte
	// leaves[i] lists leaf subgroup i's members; leaves are append-only
	// so the index is a stable subgroup ID for ACL group grants.
	leaves [][]*member
	// levels[0][i] is leaf i's node; levels[l][i] for l>0 covers
	// levels[l-1][i*fanout : (i+1)*fanout]. The top level has exactly
	// one node, the root (levels has one level while one leaf exists).
	levels [][]*node
	// users maps a member ID to its leaf index.
	users map[uint32]int

	stats Stats
}

// NewTree creates an empty tree with a fresh seed.
func NewTree(cfg Config) *Tree {
	cfg = cfg.withDefaults()
	seed := make([]byte, KeySize)
	if _, err := rand.Read(seed); err != nil {
		panic(fmt.Sprintf("groupkey: system entropy unavailable: %v", err))
	}
	return &Tree{
		leafCap: cfg.LeafCap,
		fanout:  cfg.Fanout,
		seed:    seed,
		users:   make(map[uint32]int),
	}
}

// Len returns the number of members.
func (t *Tree) Len() int { return len(t.users) }

// Epoch returns the rotation epoch: it increases on every membership
// change, and key material from earlier epochs is never re-wrapped.
func (t *Tree) Epoch() uint64 { return t.epoch }

// Leaves returns the number of leaf subgroups (stable IDs 0..Leaves-1).
func (t *Tree) Leaves() int { return len(t.leaves) }

// Contains reports membership.
func (t *Tree) Contains(userID uint32) bool {
	_, ok := t.users[userID]
	return ok
}

// LeafOf returns the stable leaf subgroup ID holding the user.
func (t *Tree) LeafOf(userID uint32) (uint32, bool) {
	li, ok := t.users[userID]
	return uint32(li), ok
}

// GroupsOf returns the subgroup IDs the user's rights resolve through
// (nil for non-members). Only leaf subgroups have stable identities,
// so that is what ACL group entries may name.
func (t *Tree) GroupsOf(userID uint32) []uint32 {
	li, ok := t.users[userID]
	if !ok {
		return nil
	}
	return []uint32{uint32(li)}
}

// Members returns the member IDs of one leaf subgroup, in enrollment
// order.
func (t *Tree) Members(leaf uint32) []uint32 {
	if int(leaf) >= len(t.leaves) {
		return nil
	}
	out := make([]uint32, 0, len(t.leaves[leaf]))
	for _, m := range t.leaves[leaf] {
		out = append(out, m.id)
	}
	return out
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

// Stats returns the cumulative meters.
func (t *Tree) Stats() Stats { return t.stats }

// Add enrolls a user into the sparsest leaf subgroup (appending a new
// leaf when all are full) at the current epoch, and rotates the
// leaf-to-root path so the new member holds only post-join key
// material. Its secret, derived from the seed, the user ID and the join
// epoch, is returned for delivery to the member's enclave; a re-added
// user joins at a later epoch and so gets a fresh secret.
func (t *Tree) Add(userID uint32) ([]byte, error) {
	if t.Contains(userID) {
		return nil, fmt.Errorf("%w: user %d", ErrMemberExists, userID)
	}
	li := t.sparsestLeaf()
	if li < 0 {
		var err error
		if li, err = t.growLeaf(); err != nil {
			return nil, err
		}
	}
	m := &member{id: userID, joined: t.epoch}
	t.leaves[li] = append(t.leaves[li], m)
	t.users[userID] = li
	if err := t.rotatePath(li); err != nil {
		return nil, err
	}
	t.epoch++
	return bytes.Clone(t.secretOf(m)), nil
}

// Revoke evicts a user and rotates every key on its former leaf-to-root
// path: the only wraps rewritten are the remaining leaf members' and
// one per child of each path ancestor — O(log n) for fixed Config.
func (t *Tree) Revoke(userID uint32) error {
	li, ok := t.users[userID]
	if !ok {
		return fmt.Errorf("%w: user %d", ErrUnknownMember, userID)
	}
	ms := t.leaves[li]
	for i, m := range ms {
		if m.id == userID {
			t.leaves[li] = append(ms[:i], ms[i+1:]...)
			break
		}
	}
	delete(t.users, userID)
	if err := t.rotatePath(li); err != nil {
		return err
	}
	t.epoch++
	return nil
}

// Secret returns the member's current secret (the owner re-derives it
// for re-wraps; a deployment would have delivered it at enrollment).
func (t *Tree) Secret(userID uint32) ([]byte, error) {
	m := t.memberOf(userID)
	if m == nil {
		return nil, fmt.Errorf("%w: user %d", ErrUnknownMember, userID)
	}
	return bytes.Clone(t.secretOf(m)), nil
}

// Seed returns the seed every member secret is derived from. Like the
// node keys it is owner-side key material that only the sealed
// supernode holds.
func (t *Tree) Seed() []byte { return bytes.Clone(t.seed) }

// RootSecret returns the current root key: the group secret that
// protects per-directory ACL key material. It changes on every
// membership change.
func (t *Tree) RootSecret() []byte {
	if len(t.levels) == 0 {
		return nil
	}
	return bytes.Clone(t.root().key)
}

// DirKeyMaterial derives the per-directory ACL protection key for the
// current epoch from the root secret and the directory's identity
// (HMAC-SHA256, so a rotation re-keys every directory at once without
// touching their metadata).
func (t *Tree) DirKeyMaterial(dirID []byte) []byte {
	if len(t.levels) == 0 {
		return nil
	}
	mac := hmac.New(sha256.New, t.root().key)
	mac.Write([]byte("nexus-groupkey-dir"))
	mac.Write(dirID)
	return mac.Sum(nil)
}

// WrappedKey is one ciphertext a member uses to climb the tree: at the
// leaf level the leaf key wrapped under a member secret, above it each
// node's key wrapped under one child's key.
type WrappedKey struct {
	// Level is the tree level of the wrapped node's key (0 = leaf).
	Level uint32
	// Index is the node's index within its level.
	Index uint32
	// Child is the member's user ID at level 0 and the child slot
	// (0..Fanout-1) above it.
	Child uint32
	// Blob is the AES-GCM wrap.
	Blob []byte
}

// PathWraps returns the wrap chain a member (or an adversary capturing
// the published blobs) holds for one user: its leaf wrap first, then
// one interior wrap per level up to the root. The blobs are copies.
func (t *Tree) PathWraps(userID uint32) ([]WrappedKey, bool) {
	m := t.memberOf(userID)
	if m == nil {
		return nil, false
	}
	wraps, err := t.pathWraps(m)
	return wraps, err == nil
}

// pathWraps makes whatever wraps of m's path are not made yet
// (fillPath) and returns copies of the chain.
func (t *Tree) pathWraps(m *member) ([]WrappedKey, error) {
	li := t.users[m.id]
	if err := t.fillPath(li, m); err != nil {
		return nil, err
	}
	out := []WrappedKey{{Level: 0, Index: uint32(li), Child: m.id, Blob: bytes.Clone(m.wrap)}}
	idx := li
	for l := 1; l < len(t.levels); l++ {
		slot := idx % t.fanout
		idx /= t.fanout
		out = append(out, WrappedKey{
			Level: uint32(l),
			Index: uint32(idx),
			Child: uint32(slot),
			Blob:  bytes.Clone(t.levels[l][idx].childWraps[slot]),
		})
	}
	return out, nil
}

// UnwrapPath chains unwraps from a member secret up a wrap chain,
// returning the recovered root secret. It is the member-side
// authenticate operation and works from captured blobs alone, which is
// exactly what makes the adversarial revocation tests meaningful: after
// a rotation the old secret opens none of the new blobs.
func UnwrapPath(secret []byte, wraps []WrappedKey) ([]byte, error) {
	if len(wraps) == 0 {
		return nil, fmt.Errorf("%w: empty wrap chain", ErrUnwrap)
	}
	cur := secret
	for _, w := range wraps {
		next, err := unwrapWith(cur, w.Blob, wrapAAD(w.Level, w.Index, w.Child))
		if err != nil {
			return nil, err
		}
		cur = next
	}
	return cur, nil
}

// MemberRoot recovers the root secret by climbing the member's own wrap
// chain — the per-authenticate work, O(log n) unwraps.
func (t *Tree) MemberRoot(userID uint32) ([]byte, error) {
	m := t.memberOf(userID)
	if m == nil {
		return nil, fmt.Errorf("%w: user %d", ErrUnknownMember, userID)
	}
	wraps, err := t.pathWraps(m)
	if err != nil {
		return nil, err
	}
	root, err := UnwrapPath(t.secretOf(m), wraps)
	if err != nil {
		return nil, err
	}
	t.stats.Unwraps += int64(len(wraps))
	return root, nil
}

// Authenticate verifies that the member's wrap chain still reaches the
// current root secret (the enclave runs this during the §IV-B
// challenge–response).
func (t *Tree) Authenticate(userID uint32) error {
	root, err := t.MemberRoot(userID)
	if err != nil {
		return err
	}
	if !hmac.Equal(root, t.root().key) {
		return fmt.Errorf("%w: stale path for user %d", ErrUnwrap, userID)
	}
	return nil
}

// --- internals ------------------------------------------------------

func (t *Tree) root() *node {
	top := t.levels[len(t.levels)-1]
	return top[0]
}

func (t *Tree) memberOf(userID uint32) *member {
	li, ok := t.users[userID]
	if !ok {
		return nil
	}
	for _, m := range t.leaves[li] {
		if m.id == userID {
			return m
		}
	}
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

// growLeaf appends a new (empty) leaf, extending interior levels and
// adding a new root when the previous top level overflows. New nodes
// get fresh keys; their wraps materialize in the caller's rotatePath.
func (t *Tree) growLeaf() (int, error) {
	if len(t.leaves) >= maxLeaves {
		return 0, fmt.Errorf("groupkey: leaf limit reached")
	}
	n, err := newNode()
	if err != nil {
		return 0, err
	}
	t.leaves = append(t.leaves, nil)
	if len(t.levels) == 0 {
		t.levels = append(t.levels, []*node{n})
		return 0, nil
	}
	t.levels[0] = append(t.levels[0], n)
	// Extend each interior level to cover the one below; add levels
	// until the top holds a single node.
	for l := 1; ; l++ {
		below := len(t.levels[l-1])
		if below == 1 {
			break
		}
		needed := (below + t.fanout - 1) / t.fanout
		if l == len(t.levels) {
			t.levels = append(t.levels, nil)
		}
		for len(t.levels[l]) < needed {
			in, err := newNode()
			if err != nil {
				return 0, err
			}
			t.levels[l] = append(t.levels[l], in)
		}
	}
	return len(t.leaves) - 1, nil
}

func newNode() (*node, error) {
	key := make([]byte, KeySize)
	if _, err := rand.Read(key); err != nil {
		return nil, fmt.Errorf("groupkey: generating node key: %w", err)
	}
	return &node{key: key}, nil
}

// secretOf returns m's secret, HMAC-SHA256(seed, "nexus-groupkey-member"
// ‖ id ‖ joined), deriving it on first use.
func (t *Tree) secretOf(m *member) []byte {
	if m.secret == nil {
		mac := hmac.New(sha256.New, t.seed)
		mac.Write([]byte("nexus-groupkey-member"))
		mac.Write(binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint32(nil, m.id), m.joined))
		m.secret = mac.Sum(nil)
	}
	return m.secret
}

// childRange returns the indices at level l-1 of node idx's children.
func (t *Tree) childRange(l, idx int) (lo, hi int) {
	lo = idx * t.fanout
	return lo, min(lo+t.fanout, len(t.levels[l-1]))
}

// fillPath makes the wraps of m's path to the root that a decode or a
// bulk build left unmade: m's leaf wrap and, at each ancestor, the wrap
// under the child on the path. Rotations make all the others they
// change, so these are derived state and not metered.
func (t *Tree) fillPath(li int, m *member) error {
	if m.wrap == nil {
		w, err := wrapWith(t.secretOf(m), t.levels[0][li].key, wrapAAD(0, uint32(li), m.id))
		if err != nil {
			return err
		}
		m.wrap = w
	}
	idx := li
	for l := 1; l < len(t.levels); l++ {
		child := idx
		idx /= t.fanout
		n := t.levels[l][idx]
		lo, hi := t.childRange(l, idx)
		if n.childWraps == nil {
			n.childWraps = make([][]byte, hi-lo)
		}
		if n.childWraps[child-lo] == nil {
			w, err := wrapWith(t.levels[l-1][child].key, n.key, wrapAAD(uint32(l), uint32(idx), uint32(child-lo)))
			if err != nil {
				return err
			}
			n.childWraps[child-lo] = w
		}
	}
	return nil
}

// rotatePath freshens the key of every node on leaf li's path to the
// root and rewrites exactly the wraps those keys require: one per
// remaining leaf member and one per child of each path ancestor.
func (t *Tree) rotatePath(li int) error {
	leaf := t.levels[0][li]
	if _, err := rand.Read(leaf.key); err != nil {
		return fmt.Errorf("groupkey: rotating leaf key: %w", err)
	}
	for _, m := range t.leaves[li] {
		w, err := wrapWith(t.secretOf(m), leaf.key, wrapAAD(0, uint32(li), m.id))
		if err != nil {
			return err
		}
		m.wrap = w
		t.stats.Wraps++
		t.stats.WrapBytes += int64(len(w))
	}
	idx := li
	for l := 1; l < len(t.levels); l++ {
		idx /= t.fanout
		n := t.levels[l][idx]
		if _, err := rand.Read(n.key); err != nil {
			return fmt.Errorf("groupkey: rotating node key: %w", err)
		}
		lo, hi := t.childRange(l, idx)
		n.childWraps = make([][]byte, hi-lo)
		for j := lo; j < hi; j++ {
			w, err := wrapWith(t.levels[l-1][j].key, n.key, wrapAAD(uint32(l), uint32(idx), uint32(j-lo)))
			if err != nil {
				return err
			}
			n.childWraps[j-lo] = w
			t.stats.Wraps++
			t.stats.WrapBytes += int64(len(w))
		}
	}
	return nil
}

// wrapAAD binds a wrap blob to its tree position so blobs cannot be
// transplanted between nodes or members.
func wrapAAD(level, index, child uint32) []byte {
	aad := make([]byte, 0, 15)
	aad = append(aad, 'g', 'k', '1')
	aad = binary.BigEndian.AppendUint32(aad, level)
	aad = binary.BigEndian.AppendUint32(aad, index)
	aad = binary.BigEndian.AppendUint32(aad, child)
	return aad
}

// wrapWith seals payload under kek with a fresh random nonce.
func wrapWith(kek, payload, aad []byte) ([]byte, error) {
	gcm, err := newGCM(kek)
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, 12)
	if _, err := rand.Read(nonce); err != nil {
		return nil, fmt.Errorf("groupkey: generating wrap nonce: %w", err)
	}
	return gcm.Seal(nonce, nonce, payload, aad), nil
}

// unwrapWith opens a wrap blob produced by wrapWith.
func unwrapWith(kek, blob, aad []byte) ([]byte, error) {
	if len(kek) != KeySize || len(blob) != wrapLen {
		return nil, ErrUnwrap
	}
	gcm, err := newGCM(kek)
	if err != nil {
		return nil, err
	}
	out, err := gcm.Open(nil, blob[:12], blob[12:], aad)
	if err != nil {
		return nil, ErrUnwrap
	}
	return out, nil
}

func newGCM(kek []byte) (cipher.AEAD, error) {
	if len(kek) != KeySize {
		return nil, fmt.Errorf("groupkey: bad KEK length %d", len(kek))
	}
	block, err := aes.NewCipher(kek)
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}
