package groupkey

import (
	"bytes"
	"testing"
)

// FuzzGroupTreeDecode hammers the tree's serial decoder with hostile
// bytes: it must never panic, and whenever it accepts an input the
// decoded tree must re-encode to the identical bytes (canonical form)
// and remain structurally usable. The seed corpus covers an empty tree,
// a tree of several leaves, and a post-churn tree; the checked-in seeds
// under testdata/fuzz/ add trees of the retired format 2.
func FuzzGroupTreeDecode(f *testing.F) {
	f.Add([]byte{})
	empty := NewTree(Config{LeafCap: 2})
	f.Add(empty.Encode())
	tr := NewTree(Config{LeafCap: 2})
	for id := uint32(1); id <= 9; id++ {
		if _, err := tr.Add(id); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(tr.Encode())
	if err := tr.Revoke(4); err != nil {
		f.Fatal(err)
	}
	if _, err := tr.Add(40); err != nil {
		f.Fatal(err)
	}
	f.Add(tr.Encode())
	// Truncations and bit-flips of a valid encoding seed the mutator
	// near the interesting boundaries.
	enc := tr.Encode()
	f.Add(enc[:len(enc)/3])
	flipped := bytes.Clone(enc)
	flipped[len(flipped)/2] ^= 0xFF
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeTree(data)
		if err != nil {
			return
		}
		re := got.Encode()
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted input is not canonical: %d in, %d out", len(data), len(re))
		}
		// Every listed member is found in its leaf, and no other.
		members := 0
		for leaf := uint32(0); int(leaf) < got.Leaves(); leaf++ {
			for _, id := range got.Members(leaf) {
				if at, ok := got.LeafOf(id); !ok || at != leaf {
					t.Fatalf("member %d of leaf %d: LeafOf = %d, %v", id, leaf, at, ok)
				}
				members++
			}
		}
		if members != got.Len() || len(got.IDs()) != got.Len() {
			t.Fatalf("%d members in leaves, Len %d, %d IDs", members, got.Len(), len(got.IDs()))
		}
		round, err := DecodeTree(re)
		if err != nil {
			t.Fatalf("re-decode of canonical bytes failed: %v", err)
		}
		if round.Len() != got.Len() || round.Leaves() != got.Leaves() {
			t.Fatal("re-decode changed tree shape")
		}
		// Decoded state must be safe to operate on.
		for _, id := range got.IDs() {
			if err := got.Revoke(id); err != nil {
				t.Fatalf("Revoke(%d) on the decoded tree: %v", id, err)
			}
			if _, err := got.Add(id); err != nil {
				t.Fatalf("Add(%d) on the decoded tree: %v", id, err)
			}
		}
	})
}
