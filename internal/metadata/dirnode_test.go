package metadata

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"nexus/internal/acl"
	"nexus/internal/serial"
	"nexus/internal/uuid"
)

// noLoad is a bucketLoader for dirnodes whose buckets are all resident.
func noLoad(i int) (*Bucket, error) {
	return nil, fmt.Errorf("unexpected bucket load of index %d", i)
}

func TestDirnodeInsertLookupRemove(t *testing.T) {
	d := NewDirnode(uuid.New(), uuid.New(), 4)

	e1 := DirEntry{Name: "a.txt", UUID: uuid.New(), Kind: KindFile}
	e2 := DirEntry{Name: "docs", UUID: uuid.New(), Kind: KindDir}
	if err := d.Insert(e1, noLoad); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := d.Insert(e2, noLoad); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := d.Insert(DirEntry{Name: "a.txt", UUID: uuid.New(), Kind: KindFile}, noLoad); !errors.Is(err, ErrEntryExists) {
		t.Fatalf("duplicate insert = %v", err)
	}

	got, err := d.Lookup("docs", noLoad)
	if err != nil || got.UUID != e2.UUID || got.Kind != KindDir {
		t.Fatalf("Lookup(docs) = %+v, %v", got, err)
	}
	if _, err := d.Lookup("missing", noLoad); !errors.Is(err, ErrEntryNotFound) {
		t.Fatalf("Lookup(missing) = %v", err)
	}

	all, err := d.List(noLoad)
	if err != nil || len(all) != 2 {
		t.Fatalf("List = %v, %v", all, err)
	}
	if d.EntryCount() != 2 {
		t.Fatalf("EntryCount = %d", d.EntryCount())
	}

	removed, err := d.Remove("a.txt", noLoad)
	if err != nil || removed.UUID != e1.UUID {
		t.Fatalf("Remove = %+v, %v", removed, err)
	}
	if _, err := d.Remove("a.txt", noLoad); !errors.Is(err, ErrEntryNotFound) {
		t.Fatalf("double remove = %v", err)
	}
	if d.EntryCount() != 1 {
		t.Fatalf("EntryCount after remove = %d", d.EntryCount())
	}
}

func TestDirnodeBucketSplitting(t *testing.T) {
	const bucketSize = 4
	d := NewDirnode(uuid.New(), uuid.Nil, bucketSize)
	for i := 0; i < 10; i++ {
		e := DirEntry{Name: fmt.Sprintf("f%02d", i), UUID: uuid.New(), Kind: KindFile}
		if err := d.Insert(e, noLoad); err != nil {
			t.Fatal(err)
		}
	}
	// 10 entries at 4 per bucket = 3 buckets.
	if len(d.Refs) != 3 {
		t.Fatalf("bucket count = %d, want 3", len(d.Refs))
	}
	if d.Refs[0].Count != 4 || d.Refs[1].Count != 4 || d.Refs[2].Count != 2 {
		t.Fatalf("bucket counts = %v", []uint32{d.Refs[0].Count, d.Refs[1].Count, d.Refs[2].Count})
	}
	// Removing from bucket 0 leaves a slot that the next insert reuses
	// (first non-full bucket wins).
	if _, err := d.Remove("f00", noLoad); err != nil {
		t.Fatal(err)
	}
	if err := d.Insert(DirEntry{Name: "new", UUID: uuid.New(), Kind: KindFile}, noLoad); err != nil {
		t.Fatal(err)
	}
	if d.Refs[0].Count != 4 || len(d.Refs) != 3 {
		t.Fatalf("slot not reused: counts %v", d.Refs)
	}
}

func TestDirnodeDirtyTracking(t *testing.T) {
	d := NewDirnode(uuid.New(), uuid.Nil, 2)
	for i := 0; i < 6; i++ {
		if err := d.Insert(DirEntry{Name: fmt.Sprintf("f%d", i), UUID: uuid.New(), Kind: KindFile}, noLoad); err != nil {
			t.Fatal(err)
		}
	}
	// All three buckets were created dirty; clean them.
	for _, b := range d.Buckets {
		b.Dirty = false
	}
	if got := d.DirtyBuckets(); len(got) != 0 {
		t.Fatalf("DirtyBuckets after clean = %v", got)
	}
	// Touch only the middle bucket (f2 or f3 lives there).
	if _, err := d.Remove("f2", noLoad); err != nil {
		t.Fatal(err)
	}
	if got := d.DirtyBuckets(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("DirtyBuckets = %v, want [1]", got)
	}
}

func TestDirnodeEncodeDecode(t *testing.T) {
	d := NewDirnode(uuid.New(), uuid.New(), 2)
	d.ACL.Set(2, acl.ReadOnly)
	d.ACL.Set(3, acl.ReadWrite)
	entries := []DirEntry{
		{Name: "file", UUID: uuid.New(), Kind: KindFile},
		{Name: "link", UUID: uuid.New(), Kind: KindSymlink, SymlinkTarget: "../target"},
	}
	for _, e := range entries {
		if err := d.Insert(e, noLoad); err != nil {
			t.Fatal(err)
		}
	}
	d.Refs = append(d.Refs,
		BucketRef{UUID: uuid.New(), Count: 2, MAC: [16]byte{1, 2, 3}},
		BucketRef{UUID: uuid.New(), Count: 1, MAC: [16]byte{9}},
	)
	d.Retired = []uuid.UUID{uuid.New()}

	body := d.EncodeBody()
	got, err := DecodeDirnodeBody(d.UUID, d.Parent, body)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.UUID != d.UUID || got.Parent != d.Parent || got.BucketSize != 2 {
		t.Fatal("header fields lost")
	}
	if got.ACL.Get(2) != acl.ReadOnly || got.ACL.Get(3) != acl.ReadWrite {
		t.Fatal("ACL lost")
	}
	// Bucket 0 came with the main object: resident, counted, no object
	// of its own.
	if len(got.Refs) != 3 || got.Refs[0] != (BucketRef{Count: 2}) || got.Refs[1] != d.Refs[1] || got.Refs[2] != d.Refs[2] {
		t.Fatalf("refs lost: %+v", got.Refs)
	}
	if len(got.Buckets) != 3 || got.Buckets[0] == nil || got.Buckets[1] != nil || got.Buckets[2] != nil {
		t.Fatalf("bucket slots = %v, want bucket 0 alone resident", got.Buckets)
	}
	for i, e := range entries {
		if got.Buckets[0].Entries[i] != e {
			t.Fatalf("bucket 0 entry %d = %+v, want %+v", i, got.Buckets[0].Entries[i], e)
		}
	}
	if link, err := got.Lookup("link", noLoad); err != nil || link != entries[1] {
		t.Fatalf("Lookup in bucket 0 = %+v, %v", link, err)
	}
	if len(got.Retired) != 1 || got.Retired[0] != d.Retired[0] || got.EntryCount() != 5 {
		t.Fatalf("retired %v, entry count %d", got.Retired, got.EntryCount())
	}
	if !bytes.Equal(got.EncodeBody(), body) {
		t.Fatal("decode → encode is not the identity")
	}
	for cut := 0; cut < len(body); cut++ {
		if _, err := DecodeDirnodeBody(d.UUID, d.Parent, body[:cut]); err == nil {
			t.Fatalf("dirnode truncated to %d of %d bytes accepted", cut, len(body))
		}
	}
	if _, err := DecodeDirnodeBody(d.UUID, d.Parent, append(body[:len(body):len(body)], 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}

	// An empty directory is one object with an empty bucket 0.
	empty, err := DecodeDirnodeBody(d.UUID, d.Parent, NewDirnode(d.UUID, d.Parent, 0).EncodeBody())
	if err != nil || empty.EntryCount() != 0 || len(empty.Refs) != 1 || empty.BucketSize != DefaultBucketSize {
		t.Fatalf("empty dirnode = %+v, %v", empty, err)
	}
}

// goldenRootKey sealed the objects under testdata/legacy-*: bytes the
// encoder of the commit before the single-object layout (the retired
// dirnode layout) produced for a
// directory of bucket size 4 holding f0..f5 (bucket 0: f0-f3, bucket 1:
// f4 and f5), ACL {2: ReadOnly, 3: ReadWrite}, one retired bucket.
func goldenRootKey() []byte {
	rk := make([]byte, RootKeySize)
	for i := range rk {
		rk[i] = byte(i)
	}
	return rk
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// decodeRetiredDirnode is the main-body decoder of the retired layout
// (ACL ‖ BucketSize(>0) ‖ refs of buckets 0..n ‖ retired), as clients
// from before the single-object layout have it.
func decodeRetiredDirnode(body []byte) error {
	r := serial.NewReader(body)
	acl.DecodeList(r)
	size := r.ReadUint32("bucket size")
	r.ReadRaw(r.ReadCount(0, "bucket ref count")*(uuid.Size+4+16), "bucket refs")
	r.ReadRaw(r.ReadCount(0, "retired bucket count")*uuid.Size, "retired buckets")
	if err := r.Finish(); err != nil {
		return err
	}
	if size == 0 {
		return fmt.Errorf("%w: zero bucket size", ErrMalformed)
	}
	return nil
}

// TestDirnodeRetiredLayoutFailsClosed: a main object in the retired
// layout (every bucket, bucket 0 included, a separate object) fails to
// decode with ErrUnsupportedLayout, whole or truncated past its first
// words; and that layout's own decoder rejects what the current encoder
// writes for the same directory, so neither reads the other's bytes.
func TestDirnodeRetiredLayoutFailsClosed(t *testing.T) {
	p, body, err := Open(goldenRootKey(), readGolden(t, "legacy-main.sealed"))
	if err != nil {
		t.Fatal(err)
	}
	if p.Type != TypeDirnode || p.Version != 7 || !bytes.Equal(body, readGolden(t, "legacy-main.body")) {
		t.Fatalf("golden main: preamble %+v", p)
	}
	if err := decodeRetiredDirnode(body); err != nil {
		t.Fatalf("the retired decoder rejects its own golden body: %v", err)
	}
	if _, err := DecodeDirnodeBody(p.UUID, p.Parent, body); !errors.Is(err, ErrUnsupportedLayout) {
		t.Fatalf("DecodeDirnodeBody(retired layout) = %v, want ErrUnsupportedLayout", err)
	}
	if _, err := DecodeDirnodeBody(p.UUID, p.Parent, body[:len(body)-1]); !errors.Is(err, ErrUnsupportedLayout) {
		t.Fatalf("DecodeDirnodeBody(truncated retired layout) = %v, want ErrUnsupportedLayout", err)
	}

	// The same directory as the current encoder writes it.
	d := NewDirnode(p.UUID, p.Parent, 4)
	d.ACL.Set(2, acl.ReadOnly)
	d.ACL.Set(3, acl.ReadWrite)
	for i := range 6 {
		e := DirEntry{Name: fmt.Sprintf("f%d", i), UUID: uuid.New(), Kind: KindFile}
		if i == 5 {
			e.Kind, e.SymlinkTarget = KindSymlink, "../target"
		}
		if err := d.Insert(e, noLoad); err != nil {
			t.Fatal(err)
		}
	}
	d.Retired = []uuid.UUID{uuid.New()}
	if err := decodeRetiredDirnode(d.EncodeBody()); err == nil {
		t.Fatal("the retired decoder accepted a current body")
	}
}

// FuzzDirnodeBodyDecode drives the post-unwrap main-body decoder with
// arbitrary bytes: it must never panic, and whatever it accepts must
// re-encode to exactly the bytes it was given (one body per directory
// state — no slack for a second encoding to hide in), with bucket 0
// resident. A body whose word after the ACL is not zero — the retired
// layout, whose golden body is a seed — fails with ErrUnsupportedLayout.
func FuzzDirnodeBodyDecode(f *testing.F) {
	d := NewDirnode(uuid.New(), uuid.Nil, 2)
	f.Add(d.EncodeBody())
	d.ACL.Set(7, acl.All)
	for _, e := range []DirEntry{
		{Name: "a", UUID: uuid.New(), Kind: KindFile},
		{Name: "b", UUID: uuid.New(), Kind: KindSymlink, SymlinkTarget: "a"},
		{Name: "c", UUID: uuid.New(), Kind: KindDir},
	} {
		if err := d.Insert(e, noLoad); err != nil {
			f.Fatal(err)
		}
	}
	d.Retired = []uuid.UUID{uuid.New()}
	f.Add(d.EncodeBody())
	if retired, err := os.ReadFile(filepath.Join("testdata", "legacy-main.body")); err == nil {
		f.Add(retired)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		id, parent := uuid.UUID{1}, uuid.UUID{2}
		d, err := DecodeDirnodeBody(id, parent, body)
		r := serial.NewReader(body)
		acl.DecodeList(r)
		if sentinel := r.ReadUint32("layout sentinel"); r.Err() == nil && sentinel != 0 && !errors.Is(err, ErrUnsupportedLayout) {
			t.Fatalf("retired-layout body: DecodeDirnodeBody = %v, want ErrUnsupportedLayout", err)
		}
		if err != nil {
			return
		}
		if d.BucketSize == 0 || len(d.Refs) == 0 || len(d.Refs) != len(d.Buckets) || d.Buckets[0] == nil || !d.Refs[0].UUID.IsNil() {
			t.Fatalf("accepted dirnode breaks its invariants: %+v", d)
		}
		if int(d.Refs[0].Count) != len(d.Buckets[0].Entries) {
			t.Fatalf("bucket 0 counts %d, holds %d", d.Refs[0].Count, len(d.Buckets[0].Entries))
		}
		if again := d.EncodeBody(); !bytes.Equal(again, body) {
			t.Fatalf("decode → encode differs:\n in %x\nout %x", body, again)
		}
	})
}

func TestBucketEncodeDecode(t *testing.T) {
	b := &Bucket{
		UUID: uuid.New(),
		Entries: []DirEntry{
			{Name: "file", UUID: uuid.New(), Kind: KindFile},
			{Name: "link", UUID: uuid.New(), Kind: KindSymlink, SymlinkTarget: "../target"},
			{Name: "dir", UUID: uuid.New(), Kind: KindDir},
		},
	}
	got, err := DecodeBucketBody(b.EncodeBody())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got.Entries) != 3 {
		t.Fatalf("entries = %d", len(got.Entries))
	}
	for i := range b.Entries {
		if got.Entries[i] != b.Entries[i] {
			t.Fatalf("entry %d = %+v, want %+v", i, got.Entries[i], b.Entries[i])
		}
	}
	// Invalid kind rejected.
	raw := b.EncodeBody()
	// Corrupt the first entry's kind byte: count(4) + namelen(4) + "file"(4) + uuid(16) = offset 28.
	raw[28] = 99
	if _, err := DecodeBucketBody(raw); err == nil {
		t.Fatal("invalid entry kind accepted")
	}
}

func TestDirnodeLazyBucketLoading(t *testing.T) {
	// Encode a dirnode with three buckets, then decode and access it with
	// a loader that serves the sealed overflow buckets, counting loads.
	rk, err := NewRootKey()
	if err != nil {
		t.Fatal(err)
	}
	d := NewDirnode(uuid.New(), uuid.Nil, 2)
	for i := 0; i < 6; i++ {
		if err := d.Insert(DirEntry{Name: fmt.Sprintf("f%d", i), UUID: uuid.New(), Kind: KindFile}, noLoad); err != nil {
			t.Fatal(err)
		}
	}
	// Seal each overflow bucket and record tags.
	sealedBuckets := make(map[uuid.UUID][]byte)
	for i, b := range d.Buckets[1:] {
		blob, err := Seal(rk, Preamble{Type: TypeDirBucket, UUID: b.UUID, Parent: d.UUID, Version: 1}, b.EncodeBody())
		if err != nil {
			t.Fatal(err)
		}
		tag, err := Tag(blob)
		if err != nil {
			t.Fatal(err)
		}
		d.Refs[i+1].MAC = tag
		sealedBuckets[b.UUID] = blob
	}

	got, err := DecodeDirnodeBody(d.UUID, d.Parent, d.EncodeBody())
	if err != nil {
		t.Fatal(err)
	}
	loads := 0
	loader := func(i int) (*Bucket, error) {
		loads++
		blob, ok := sealedBuckets[got.Refs[i].UUID]
		if !ok {
			return nil, fmt.Errorf("load of bucket %d, which has no object", i)
		}
		tag, err := Tag(blob)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(tag[:], got.Refs[i].MAC[:]) {
			return nil, ErrBucketMACMismatch
		}
		_, body, err := Open(rk, blob)
		if err != nil {
			return nil, err
		}
		return DecodeBucketBody(body)
	}

	// f0 and f1 live in bucket 0, which came with the main object.
	if _, err := got.Lookup("f1", loader); err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if loads != 0 {
		t.Fatalf("loads after a bucket-0 lookup = %d, want 0", loads)
	}
	// f2 lives in bucket 1: a lookup loads that bucket only.
	if _, err := got.Lookup("f2", loader); err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if loads != 1 {
		t.Fatalf("loads after first overflow lookup = %d, want 1", loads)
	}
	// A second lookup of the same bucket is served from memory.
	if _, err := got.Lookup("f3", loader); err != nil {
		t.Fatal(err)
	}
	if loads != 1 {
		t.Fatalf("loads after cached lookup = %d, want 1", loads)
	}
	// Listing loads the remaining bucket.
	if all, err := got.List(loader); err != nil || len(all) != 6 {
		t.Fatalf("List = %d entries, %v", len(all), err)
	}
	if loads != 2 {
		t.Fatalf("loads after List = %d, want 2", loads)
	}
}

func TestBucketMACMismatchDetected(t *testing.T) {
	// Simulates a rollback: the server re-serves an older sealed overflow
	// bucket.
	rk, err := NewRootKey()
	if err != nil {
		t.Fatal(err)
	}
	d := NewDirnode(uuid.New(), uuid.Nil, 1)
	for _, name := range []string{"main", "old"} {
		if err := d.Insert(DirEntry{Name: name, UUID: uuid.New(), Kind: KindFile}, noLoad); err != nil {
			t.Fatal(err)
		}
	}
	b := d.Buckets[1]
	oldBlob, err := Seal(rk, Preamble{Type: TypeDirBucket, UUID: b.UUID, Parent: d.UUID, Version: 1}, b.EncodeBody())
	if err != nil {
		t.Fatal(err)
	}

	// Directory is updated: the bucket's entry replaced, new seal, main
	// dirnode records the new tag.
	if _, err := d.Remove("old", noLoad); err != nil {
		t.Fatal(err)
	}
	if err := d.Insert(DirEntry{Name: "new", UUID: uuid.New(), Kind: KindFile}, noLoad); err != nil {
		t.Fatal(err)
	}
	if len(d.Refs) != 2 || len(b.Entries) != 1 || b.Entries[0].Name != "new" {
		t.Fatalf("the update did not land in bucket 1: %+v", d.Refs)
	}
	newBlob, err := Seal(rk, Preamble{Type: TypeDirBucket, UUID: b.UUID, Parent: d.UUID, Version: 2}, b.EncodeBody())
	if err != nil {
		t.Fatal(err)
	}
	newTag, err := Tag(newBlob)
	if err != nil {
		t.Fatal(err)
	}
	d.Refs[1].MAC = newTag

	// The loader is handed the OLD blob: tag comparison must fail.
	oldTag, err := Tag(oldBlob)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(oldTag[:], d.Refs[1].MAC[:]) {
		t.Fatal("old and new bucket tags are identical")
	}
}
