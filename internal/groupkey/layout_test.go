package groupkey

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// churnedTree is a multi-level tree after adds, revocations and a
// re-add, so members joined at different epochs and one leaf has a gap.
func churnedTree(t *testing.T) *Tree {
	t.Helper()
	tr := NewTree(Config{LeafCap: 3, Fanout: 2})
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

// TestEncodeHoldsNoSecretOrWrap: the serialized tree is the seed, the
// node keys and each member's ID and join epoch. No member secret and
// no wrap appears in it, and its size is exactly that.
func TestEncodeHoldsNoSecretOrWrap(t *testing.T) {
	tr := churnedTree(t)
	enc := tr.Encode()
	for id := range tr.users {
		secret, err := tr.Secret(id)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(enc, secret) {
			t.Fatalf("the encoding holds member %d's secret", id)
		}
		wraps, _ := tr.PathWraps(id)
		for _, w := range wraps {
			if bytes.Contains(enc, w.Blob[12:]) {
				t.Fatalf("the encoding holds a wrap of member %d's path (level %d)", id, w.Level)
			}
		}
	}
	nodes := 0
	for _, lvl := range tr.levels {
		nodes += len(lvl)
	}
	want := 1 + 4 + 4 + 8 + KeySize + 4 + 4*tr.Leaves() + 12*tr.Len() + KeySize*nodes
	if len(enc) != want {
		t.Fatalf("encoding is %d bytes, want %d", len(enc), want)
	}
}

// TestDecodedTreeFillsPathsLazily: a decoded tree makes no secret and no
// wrap until a path is used, makes only that path's, and does not meter
// them as rotation work; a revocation on it makes exactly the wraps the
// same revocation makes on the tree it was encoded from.
func TestDecodedTreeFillsPathsLazily(t *testing.T) {
	tr := churnedTree(t)
	got, err := DecodeTree(tr.Encode())
	if err != nil {
		t.Fatal(err)
	}
	made := func() (secrets, wraps int) {
		for _, ms := range got.leaves {
			for _, m := range ms {
				if m.secret != nil {
					secrets++
				}
				if m.wrap != nil {
					wraps++
				}
			}
		}
		for _, lvl := range got.levels {
			for _, n := range lvl {
				for _, w := range n.childWraps {
					if w != nil {
						wraps++
					}
				}
			}
		}
		return secrets, wraps
	}
	if s, w := made(); s != 0 || w != 0 {
		t.Fatalf("decode made %d secrets and %d wraps", s, w)
	}
	if err := got.Authenticate(7); err != nil {
		t.Fatalf("Authenticate on the decoded tree: %v", err)
	}
	if s, w := made(); s != 1 || w != len(got.levels) {
		t.Fatalf("one authentication made %d secrets and %d wraps, want 1 and %d", s, w, len(got.levels))
	}
	if st := got.Stats(); st.Wraps != 0 || st.WrapBytes != 0 || st.Unwraps != int64(len(got.levels)) {
		t.Fatalf("stats after one authentication = %+v", st)
	}
	trWraps, gotWraps := tr.Stats().Wraps, got.Stats().Wraps
	if err := tr.Revoke(8); err != nil {
		t.Fatal(err)
	}
	if err := got.Revoke(8); err != nil {
		t.Fatal(err)
	}
	if want, have := tr.Stats().Wraps-trWraps, got.Stats().Wraps-gotWraps; have != want {
		t.Fatalf("a revocation on the decoded tree made %d wraps, on the original %d", have, want)
	}
	for id := range got.users {
		if err := got.Authenticate(id); err != nil {
			t.Fatalf("Authenticate(%d) after the revocation: %v", id, err)
		}
	}
	again, err := DecodeTree(got.Encode())
	if err != nil || !bytes.Equal(again.RootSecret(), got.RootSecret()) {
		t.Fatalf("re-decoding after the revocation: %v", err)
	}
}

// TestDecodeRejectsLateJoin: a member cannot have joined at or after the
// tree's epoch, since Add enrolls at the current epoch and then bumps it.
func TestDecodeRejectsLateJoin(t *testing.T) {
	for _, late := range []uint64{0, 1, 1 << 40} {
		tr := churnedTree(t)
		tr.leaves[1][0].joined = tr.epoch + late
		if _, err := DecodeTree(tr.Encode()); !errors.Is(err, ErrMalformed) {
			t.Fatalf("member joined at epoch %d of a tree at %d: err = %v, want ErrMalformed", tr.leaves[1][0].joined, tr.epoch, err)
		}
	}
}

// TestDecodeRetiredFormatFailsClosed: format 1, which stored every
// member secret and wrap, is a retired layout. testdata holds a real
// one, a nine-member tree the format-1 encoder wrote.
func TestDecodeRetiredFormatFailsClosed(t *testing.T) {
	format1, err := os.ReadFile("testdata/tree-format1.golden")
	if err != nil {
		t.Fatal(err)
	}
	if format1[0] != treeFormatRetired {
		t.Fatalf("golden starts with format %d", format1[0])
	}
	if _, err := DecodeTree(format1); !errors.Is(err, ErrUnsupportedLayout) {
		t.Fatalf("DecodeTree(format 1) = %v, want ErrUnsupportedLayout", err)
	}
}

// TestFuzzCorpusDecodes keeps the checked-in FuzzGroupTreeDecode seeds in
// the current format: each but the truncated one reaches the decoder's
// success path.
func TestFuzzCorpusDecodes(t *testing.T) {
	paths, err := filepath.Glob("testdata/fuzz/FuzzGroupTreeDecode/*")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no seeds: %v", err)
	}
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
		if truncated := strings.HasSuffix(p, "truncated"); truncated != (err != nil) {
			t.Fatalf("%s: DecodeTree = %v", p, err)
		}
	}
}
