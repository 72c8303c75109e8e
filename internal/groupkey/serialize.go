package groupkey

import (
	"crypto/rand"
	"fmt"

	"nexus/internal/serial"
)

// treeFormat tags the serialized tree layout. Format 1 also stored every
// member secret and wrap; it is retired and fails with
// ErrUnsupportedLayout.
const (
	treeFormat        = 2
	treeFormatRetired = 1
)

// Encode serializes what the tree cannot recompute:
//
//	format ‖ leafCap ‖ fanout ‖ epoch ‖ seed ‖ leaf count ‖
//	per leaf: member count ‖ (id ‖ join epoch)* ‖ node keys
//
// The seed and the node keys are raw 32-byte fields; the node keys run
// level by level from the leaves up, and the level widths follow from
// the leaf count and the fanout. Member secrets and wraps are derived
// (secretOf, fillPath), so none is written. The result is only ever
// stored inside the sealed supernode body.
func (t *Tree) Encode() []byte {
	_, nodes := levelWidths(len(t.leaves), t.fanout)
	w := serial.NewWriter(1 + 4 + 4 + 8 + KeySize + 4 + 4*len(t.leaves) + 12*len(t.users) + KeySize*nodes)
	w.WriteUint8(treeFormat)
	w.WriteUint32(uint32(t.leafCap))
	w.WriteUint32(uint32(t.fanout))
	w.WriteUint64(t.epoch)
	w.WriteRaw(t.seed)
	w.WriteUint32(uint32(len(t.leaves)))
	for _, ms := range t.leaves {
		w.WriteUint32(uint32(len(ms)))
		for _, m := range ms {
			w.WriteUint32(m.id)
			w.WriteUint64(m.joined)
		}
	}
	for _, lvl := range t.levels {
		for _, n := range lvl {
			w.WriteRaw(n.key)
		}
	}
	return w.Bytes()
}

// DecodeTree parses an Encode result, validating structure strictly:
// bounds on every count, unique members that joined before the tree's
// epoch, and exactly as many node keys as the geometry the leaf count
// and fanout imply. It makes no secret and no wrap: those are derived on
// first use. It never panics on hostile input (FuzzGroupTreeDecode
// enforces this).
func DecodeTree(data []byte) (*Tree, error) {
	r := serial.NewReader(data)
	switch v := r.ReadUint8("groupkey format"); {
	case r.Err() != nil:
	case v == treeFormatRetired:
		return nil, fmt.Errorf("%w: key tree of format %d", ErrUnsupportedLayout, v)
	case v != treeFormat:
		return nil, fmt.Errorf("%w: unsupported format %d", ErrMalformed, v)
	}
	leafCap := int(r.ReadUint32("leaf cap"))
	fanout := int(r.ReadUint32("fanout"))
	if r.Err() == nil && (leafCap < 1 || leafCap > maxLeafCap || fanout < 2 || fanout > maxFanout) {
		return nil, fmt.Errorf("%w: bad config leafCap=%d fanout=%d", ErrMalformed, leafCap, fanout)
	}
	t := &Tree{
		leafCap: leafCap,
		fanout:  fanout,
		epoch:   r.ReadUint64("epoch"),
		seed:    r.ReadRaw(KeySize, "tree seed"),
		users:   make(map[uint32]int),
	}
	nLeaves := r.ReadCount(maxLeaves, "leaf count")
	for li := 0; li < nLeaves && r.Err() == nil; li++ {
		nm := r.ReadCount(leafCap, "leaf member count")
		ms := make([]*member, 0, nm)
		for j := 0; j < nm && r.Err() == nil; j++ {
			m := &member{id: r.ReadUint32("member id"), joined: r.ReadUint64("member join epoch")}
			if r.Err() != nil {
				break
			}
			if m.joined >= t.epoch {
				return nil, fmt.Errorf("%w: member %d joined at epoch %d, not before the tree's %d", ErrMalformed, m.id, m.joined, t.epoch)
			}
			if _, dup := t.users[m.id]; dup {
				return nil, fmt.Errorf("%w: duplicate member %d", ErrMalformed, m.id)
			}
			t.users[m.id] = li
			ms = append(ms, m)
		}
		t.leaves = append(t.leaves, ms)
	}
	if r.Err() == nil {
		widths, nodes := levelWidths(nLeaves, fanout)
		if r.Remaining() != nodes*KeySize {
			return nil, fmt.Errorf("%w: %d bytes of node keys, want %d for %d leaves", ErrMalformed, r.Remaining(), nodes*KeySize, nLeaves)
		}
		t.levels = levelsFrom(widths, r.ReadRaw(nodes*KeySize, "node keys"))
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	return t, nil
}

// levelWidths returns the width of each level of a tree over nLeaves
// leaves — the leaves, then ceil(below/fanout) per level up to a single
// root; none for no leaves — and their sum.
func levelWidths(nLeaves, fanout int) (widths []int, nodes int) {
	for w := nLeaves; w > 0; w = (w + fanout - 1) / fanout {
		widths = append(widths, w)
		nodes += w
		if w == 1 {
			break
		}
	}
	return widths, nodes
}

// levelsFrom builds the levels of the given widths, taking each node's
// key from keys in order.
func levelsFrom(widths []int, keys []byte) [][]*node {
	levels := make([][]*node, len(widths))
	for l, w := range widths {
		levels[l] = make([]*node, w)
		for i := range levels[l] {
			levels[l][i] = &node{key: keys[:KeySize:KeySize]}
			keys = keys[KeySize:]
		}
	}
	return levels
}

// NewTreeWithMembers bulk-builds a tree over a member set without
// per-add path rotations: one batched random draw for every node key,
// with every member joined at epoch 0. Member secrets follow from the
// seed and wraps are made on first use, so the build makes none. This
// is what makes the 10^6-user benchmark sweep feasible.
func NewTreeWithMembers(cfg Config, userIDs []uint32) (*Tree, error) {
	t := NewTree(cfg)
	if len(userIDs) == 0 {
		return t, nil
	}
	nLeaves := (len(userIDs) + t.leafCap - 1) / t.leafCap
	t.leaves = make([][]*member, nLeaves)
	for i, id := range userIDs {
		if _, dup := t.users[id]; dup {
			return nil, fmt.Errorf("%w: user %d", ErrMemberExists, id)
		}
		li := i / t.leafCap
		t.leaves[li] = append(t.leaves[li], &member{id: id})
		t.users[id] = li
	}
	widths, nodes := levelWidths(nLeaves, t.fanout)
	keys := make([]byte, nodes*KeySize)
	if _, err := rand.Read(keys); err != nil {
		return nil, fmt.Errorf("groupkey: generating bulk key material: %w", err)
	}
	t.levels = levelsFrom(widths, keys)
	t.epoch = 1
	return t, nil
}
