// Package merkle implements the authenticated dictionary behind the
// enclave's O(1)-state freshness mode (DESIGN.md §15): a Merkle-hashed
// crit-bit trie mapping object UUIDs to version counters.
//
// The structure is canonical — a given key/version set has exactly one
// trie shape and therefore one root hash, regardless of insertion
// order: each inner node branches on the first bit position where its
// two subtrees' keys diverge, and branch bit indices strictly increase
// from root to leaf. Canonical shape is what makes the root a
// commitment an enclave can hold instead of the table itself, and what
// lets Verify double as an *absence* proof: following the lookup key's
// bits from the root lands on the unique leaf (or empty slot) that key
// could occupy, so a proof ending in a different leaf proves the key is
// not in the tree.
//
// Mutations path-copy: nodes are immutable once linked, every update
// rebuilds only the root-to-leaf spine (expected O(log n) for random
// UUIDs), and Clone is a pointer copy. The untrusted proof server
// (freshtree.Store) leans on this to keep the previous epoch's
// snapshot at the cost of one spine per updated leaf.
package merkle

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"

	"nexus/internal/uuid"
)

// HashSize is the node hash width (SHA-256).
const HashSize = 32

// KeyBits is the key width: UUIDs, 128 bits.
const KeyBits = 8 * uuid.Size

// MaxLeaves caps decoded trees, bounding allocation from hostile
// encodings while leaving room for the ROADMAP's 10^6-object target.
const MaxLeaves = 1 << 20

// Errors reported by the package. Verification failures and malformed
// encodings both collapse into ErrBadProof at the enclave boundary;
// they are distinct here so tests can tell a rejected proof from bytes
// that never parsed.
var (
	// ErrBadProof reports a proof that does not verify against the
	// given root (wrong siblings, wrong leaf, or inconsistent path).
	ErrBadProof = errors.New("merkle: proof does not verify")
	// ErrMalformed reports bytes that do not decode as a well-formed
	// proof or tree (bad format tag, non-canonical geometry, trailing
	// data, out-of-range bit indices).
	ErrMalformed = errors.New("merkle: malformed encoding")
)

// LeafUpdate is one (key, version) assignment; Version 0 removes the
// key. It is the unit of the enclave's batched root updates.
type LeafUpdate struct {
	ID      uuid.UUID
	Version uint64
}

// Leaf is one key/version pair stored in the tree.
type Leaf struct {
	ID      uuid.UUID
	Version uint64
}

// Domain-separation prefixes: leaf and inner hashes must never collide
// structurally, and the empty tree needs a root distinct from both.
const (
	tagLeaf  = 0x00
	tagInner = 0x01
	tagEmpty = 0x02
)

// node is one trie node. bit < 0 marks a leaf. Nodes are immutable
// once linked into a tree; mutations copy the spine.
type node struct {
	bit         int // branch bit index, -1 for leaves
	left, right *node
	id          uuid.UUID
	version     uint64
	hash        [HashSize]byte
}

func leafHash(id uuid.UUID, version uint64) [HashSize]byte {
	var buf [1 + uuid.Size + 8]byte
	buf[0] = tagLeaf
	copy(buf[1:], id[:])
	binary.BigEndian.PutUint64(buf[1+uuid.Size:], version)
	return sha256.Sum256(buf[:])
}

func innerHash(bit int, left, right [HashSize]byte) [HashSize]byte {
	var buf [2 + 2*HashSize]byte
	buf[0] = tagInner
	buf[1] = byte(bit)
	copy(buf[2:], left[:])
	copy(buf[2+HashSize:], right[:])
	return sha256.Sum256(buf[:])
}

// EmptyRoot is the root hash of a tree with no leaves.
func EmptyRoot() [HashSize]byte {
	return sha256.Sum256([]byte{tagEmpty})
}

func newLeaf(id uuid.UUID, version uint64) *node {
	return &node{bit: -1, id: id, version: version, hash: leafHash(id, version)}
}

func newInner(bit int, left, right *node) *node {
	return &node{bit: bit, left: left, right: right, hash: innerHash(bit, left.hash, right.hash)}
}

// bitOf extracts key bit i (0 = most significant bit of byte 0).
func bitOf(id uuid.UUID, i int) int {
	return int(id[i>>3]>>(7-i&7)) & 1
}

// critBit returns the first bit position where a and b differ, or -1
// when they are equal.
func critBit(a, b uuid.UUID) int {
	for i := 0; i < uuid.Size; i++ {
		if x := a[i] ^ b[i]; x != 0 {
			n := 0
			for x&0x80 == 0 {
				x <<= 1
				n++
			}
			return i*8 + n
		}
	}
	return -1
}

// Tree is the authenticated dictionary. The zero value is not usable;
// call New.
type Tree struct {
	root *node
	size int
}

// New returns an empty tree.
func New() *Tree { return &Tree{} }

// Len returns the number of leaves.
func (t *Tree) Len() int { return t.size }

// Root returns the current root hash (EmptyRoot for an empty tree).
func (t *Tree) Root() [HashSize]byte {
	if t.root == nil {
		return EmptyRoot()
	}
	return t.root.hash
}

// Clone returns a snapshot sharing all structure with t. Either tree
// can keep mutating; spines copy on write.
func (t *Tree) Clone() *Tree { return &Tree{root: t.root, size: t.size} }

// Lookup returns the version stored for id.
func (t *Tree) Lookup(id uuid.UUID) (uint64, bool) {
	n := t.root
	if n == nil {
		return 0, false
	}
	for n.bit >= 0 {
		if bitOf(id, n.bit) == 0 {
			n = n.left
		} else {
			n = n.right
		}
	}
	if n.id == id {
		return n.version, true
	}
	return 0, false
}

// Set assigns version to id; version 0 removes id (removing an absent
// key is a no-op, mirroring the freshness table's delete semantics).
func (t *Tree) Set(id uuid.UUID, version uint64) {
	if version == 0 {
		var removed bool
		t.root, removed = removeNode(t.root, id)
		if removed {
			t.size--
		}
		return
	}
	if t.root == nil {
		t.root = newLeaf(id, version)
		t.size = 1
		return
	}
	// Find the terminal leaf id's bits route to; it decides between an
	// in-place update and an insert at the diverging bit.
	w := t.root
	for w.bit >= 0 {
		if bitOf(id, w.bit) == 0 {
			w = w.left
		} else {
			w = w.right
		}
	}
	if w.id == id {
		t.root = updateNode(t.root, id, version)
		return
	}
	t.root = insertNode(t.root, id, version, critBit(w.id, id))
	t.size++
}

// updateNode rewrites the spine to a leaf that already exists.
func updateNode(n *node, id uuid.UUID, version uint64) *node {
	if n.bit < 0 {
		return newLeaf(id, version)
	}
	if bitOf(id, n.bit) == 0 {
		return newInner(n.bit, updateNode(n.left, id, version), n.right)
	}
	return newInner(n.bit, n.left, updateNode(n.right, id, version))
}

// insertNode splices a new leaf in at the crit bit: descend while the
// branch bit is above (smaller than) crit, then pair the new leaf with
// the displaced subtree under a fresh inner node.
func insertNode(n *node, id uuid.UUID, version uint64, crit int) *node {
	if n.bit < 0 || n.bit > crit {
		lf := newLeaf(id, version)
		if bitOf(id, crit) == 0 {
			return newInner(crit, lf, n)
		}
		return newInner(crit, n, lf)
	}
	if bitOf(id, n.bit) == 0 {
		return newInner(n.bit, insertNode(n.left, id, version, crit), n.right)
	}
	return newInner(n.bit, n.left, insertNode(n.right, id, version, crit))
}

// removeNode deletes id's leaf, collapsing its parent onto the sibling
// subtree (the trie stays canonical: no single-child inner nodes).
func removeNode(n *node, id uuid.UUID) (*node, bool) {
	if n == nil {
		return nil, false
	}
	if n.bit < 0 {
		if n.id == id {
			return nil, true
		}
		return n, false
	}
	if bitOf(id, n.bit) == 0 {
		child, ok := removeNode(n.left, id)
		if !ok {
			return n, false
		}
		if child == nil {
			return n.right, true
		}
		return newInner(n.bit, child, n.right), true
	}
	child, ok := removeNode(n.right, id)
	if !ok {
		return n, false
	}
	if child == nil {
		return n.left, true
	}
	return newInner(n.bit, n.left, child), true
}

// Prove returns the membership (or absence) proof for id against the
// current tree: the lookup path's branch bits and sibling hashes plus
// the terminal leaf. For an empty tree the proof has no leaf.
func (t *Tree) Prove(id uuid.UUID) *Proof {
	p := &Proof{}
	n := t.root
	if n == nil {
		return p
	}
	for n.bit >= 0 {
		if bitOf(id, n.bit) == 0 {
			p.Steps = append(p.Steps, ProofStep{Bit: uint8(n.bit), Sibling: n.right.hash})
			n = n.left
		} else {
			p.Steps = append(p.Steps, ProofStep{Bit: uint8(n.bit), Sibling: n.left.hash})
			n = n.right
		}
	}
	p.HasLeaf = true
	p.LeafID = n.id
	p.LeafVersion = n.version
	return p
}

// Leaves returns every leaf in canonical (key bit) order.
func (t *Tree) Leaves() []Leaf {
	out := make([]Leaf, 0, t.size)
	var walk func(n *node)
	walk = func(n *node) {
		if n == nil {
			return
		}
		if n.bit < 0 {
			out = append(out, Leaf{ID: n.id, Version: n.version})
			return
		}
		walk(n.left)
		walk(n.right)
	}
	walk(t.root)
	return out
}
