package groupkey

import (
	"fmt"

	"nexus/internal/serial"
)

// treeFormat tags the serialized tree layout. Format 1 also stored every
// member secret and wrap, format 2 a tree seed, the node keys and each
// member's join epoch; both are retired and fail with
// ErrUnsupportedLayout.
const treeFormat = 3

// Encode serializes the tree:
//
//	format ‖ leafCap ‖ leaf count ‖ per leaf: member count ‖ IDs
//
// The result is only ever stored inside the sealed supernode body.
func (t *Tree) Encode() []byte {
	w := serial.NewWriter(1 + 4 + 4 + 4*len(t.leaves) + 4*len(t.users))
	w.WriteUint8(treeFormat)
	w.WriteUint32(uint32(t.leafCap))
	w.WriteUint32(uint32(len(t.leaves)))
	for _, ms := range t.leaves {
		w.WriteUint32(uint32(len(ms)))
		for _, id := range ms {
			w.WriteUint32(id)
		}
	}
	return w.Bytes()
}

// DecodeTree parses an Encode result, validating structure strictly:
// bounds on every count and unique member IDs. The leaves share one
// backing array, each capped at its own length, so an Add to one copies
// it out instead of overwriting the next. It never panics on hostile
// input (FuzzGroupTreeDecode enforces this).
func DecodeTree(data []byte) (*Tree, error) {
	r := serial.NewReader(data)
	switch v := r.ReadUint8("groupkey format"); {
	case r.Err() != nil:
	case v == 1 || v == 2:
		return nil, fmt.Errorf("%w: key tree of format %d", ErrUnsupportedLayout, v)
	case v != treeFormat:
		return nil, fmt.Errorf("%w: unsupported format %d", ErrMalformed, v)
	}
	leafCap := int(r.ReadUint32("leaf cap"))
	if r.Err() == nil && (leafCap < 1 || leafCap > maxLeafCap) {
		return nil, fmt.Errorf("%w: bad leaf cap %d", ErrMalformed, leafCap)
	}
	nLeaves := r.ReadCount(maxLeaves, "leaf count")
	// Every leaf takes 4 bytes and every member 4 more, so the bytes
	// left bound both before anything is allocated.
	if 4*nLeaves > r.Remaining() {
		return nil, fmt.Errorf("%w: %d leaves in %d bytes", ErrMalformed, nLeaves, r.Remaining())
	}
	ids := make([]uint32, 0, (r.Remaining()-4*nLeaves)/4)
	t := &Tree{leafCap: leafCap, leaves: make([][]uint32, 0, nLeaves), users: make(map[uint32]uint32, cap(ids))}
	for li := 0; li < nLeaves && r.Err() == nil; li++ {
		nm := r.ReadCount(leafCap, "leaf member count")
		start := len(ids)
		for j := 0; j < nm && r.Err() == nil; j++ {
			id := r.ReadUint32("member id")
			if r.Err() != nil {
				break
			}
			if _, dup := t.users[id]; dup {
				return nil, fmt.Errorf("%w: duplicate member %d", ErrMalformed, id)
			}
			t.users[id] = uint32(li)
			ids = append(ids, id)
		}
		t.leaves = append(t.leaves, ids[start:len(ids):len(ids)])
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	return t, nil
}

// NewTreeWithMembers bulk-builds a tree over a member set, filling each
// leaf to LeafCap in order. It is what makes the 10^6-user benchmark
// sweep feasible.
func NewTreeWithMembers(cfg Config, userIDs []uint32) (*Tree, error) {
	t := NewTree(cfg)
	for i, id := range userIDs {
		if _, dup := t.users[id]; dup {
			return nil, fmt.Errorf("%w: user %d", ErrMemberExists, id)
		}
		li := i / t.leafCap
		if li == len(t.leaves) {
			t.leaves = append(t.leaves, make([]uint32, 0, t.leafCap))
		}
		t.leaves[li] = append(t.leaves[li], id)
		t.users[id] = uint32(li)
	}
	return t, nil
}
