package groupkey

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"nexus/internal/serial"
)

// churnedTree is a tree after adds, revocations and a re-add, so one
// leaf has a gap and the re-added member sits in another leaf.
func churnedTree(t *testing.T) *Tree {
	t.Helper()
	tr := NewTree(Config{LeafCap: 3})
	for id := uint32(1); id <= 20; id++ {
		mustAdd(t, tr, id)
	}
	for _, id := range []uint32{4, 11, 17} {
		if err := tr.Revoke(id); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(t, tr, 11)
	return tr
}

// TestEncodeHoldsNoSecretOrWrap: the serialized tree is the leaf cap and
// each leaf's member IDs, and nothing else — no key material of any
// kind — so its size is exactly that.
func TestEncodeHoldsNoSecretOrWrap(t *testing.T) {
	tr := churnedTree(t)
	enc := tr.Encode()
	if want := 1 + 4 + 4 + 4*tr.Leaves() + 4*tr.Len(); len(enc) != want {
		t.Fatalf("encoding is %d bytes, want %d", len(enc), want)
	}
	r := serial.NewReader(enc)
	if f, leafCap, leaves := r.ReadUint8(""), r.ReadUint32(""), r.ReadUint32(""); f != treeFormat || leafCap != 3 || int(leaves) != tr.Leaves() {
		t.Fatalf("header = format %d, leaf cap %d, %d leaves", f, leafCap, leaves)
	}
	for leaf := uint32(0); int(leaf) < tr.Leaves(); leaf++ {
		ms := tr.Members(leaf)
		if n := r.ReadUint32(""); int(n) != len(ms) {
			t.Fatalf("leaf %d: %d members encoded, want %d", leaf, n, len(ms))
		}
		for _, id := range ms {
			if got := r.ReadUint32(""); got != id {
				t.Fatalf("leaf %d: member %d encoded as %d", leaf, id, got)
			}
		}
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeRetiredFormatFailsClosed: format 1, which stored every
// member secret and wrap, and format 2, which stored a tree seed, the
// node keys and each member's join epoch, are retired layouts. testdata
// holds a real one of each, a nine-member tree its encoder wrote.
func TestDecodeRetiredFormatFailsClosed(t *testing.T) {
	for _, format := range []byte{1, 2} {
		golden, err := os.ReadFile(fmt.Sprintf("testdata/tree-format%d.golden", format))
		if err != nil {
			t.Fatal(err)
		}
		if golden[0] != format {
			t.Fatalf("golden of format %d starts with format %d", format, golden[0])
		}
		if _, err := DecodeTree(golden); !errors.Is(err, ErrUnsupportedLayout) {
			t.Fatalf("DecodeTree(format %d) = %v, want ErrUnsupportedLayout", format, err)
		}
	}
}

// TestFuzzCorpusDecodes checks the checked-in FuzzGroupTreeDecode seeds:
// each of the current format but the truncated one reaches the decoder's
// success path, and each of the retired format 2 fails with
// ErrUnsupportedLayout.
func TestFuzzCorpusDecodes(t *testing.T) {
	paths, err := filepath.Glob("testdata/fuzz/FuzzGroupTreeDecode/*")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no seeds: %v", err)
	}
	current := 0
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		_, err = DecodeTree([]byte(data))
		switch data[0] {
		case 2:
			if !errors.Is(err, ErrUnsupportedLayout) {
				t.Fatalf("%s: DecodeTree = %v, want ErrUnsupportedLayout", p, err)
			}
		case treeFormat:
			current++
			if truncated := strings.HasSuffix(p, "truncated"); truncated != (err != nil) {
				t.Fatalf("%s: DecodeTree = %v", p, err)
			}
		default:
			t.Fatalf("%s: a seed of format %d", p, data[0])
		}
	}
	if current == 0 {
		t.Fatal("no seed of the current format")
	}
}
