package metadata

import (
	"errors"
	"fmt"

	"nexus/internal/acl"
	"nexus/internal/serial"
	"nexus/internal/uuid"
)

// DefaultBucketSize is the default number of directory entries per
// bucket; the paper's evaluation sets it to 128 (§VII).
const DefaultBucketSize = 128

// EntryKind discriminates directory entries.
type EntryKind uint8

// Entry kinds.
const (
	KindFile EntryKind = iota + 1
	KindDir
	KindSymlink
)

func (k EntryKind) String() string {
	switch k {
	case KindFile:
		return "file"
	case KindDir:
		return "dir"
	case KindSymlink:
		return "symlink"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// DirEntry maps a human-readable name to the UUID of the entry's
// metadata object. Names only ever appear inside encrypted dirnode
// buckets; the storage service sees UUIDs (§IV-A1).
type DirEntry struct {
	Name string
	UUID uuid.UUID
	Kind EntryKind
	// SymlinkTarget is the link target for KindSymlink entries.
	SymlinkTarget string
}

// Dirnode errors.
var (
	// ErrEntryExists reports a name collision on insert.
	ErrEntryExists = errors.New("metadata: directory entry already exists")
	// ErrEntryNotFound reports a lookup miss.
	ErrEntryNotFound = errors.New("metadata: directory entry not found")
	// ErrBucketMACMismatch reports a bucket whose tag does not match the
	// main dirnode's record — a stale or substituted bucket.
	ErrBucketMACMismatch = errors.New("metadata: bucket MAC mismatch (rollback or substitution)")
)

// BucketRef is the main dirnode's record of one bucket: its object UUID,
// entry count, and the GCM tag of its current sealed form. Recording the
// tag prevents bucket-level rollback: a re-served stale bucket fails the
// MAC comparison (§V-B). The ref of bucket 0, which is sealed inside the
// main object, carries the count alone: its UUID is nil and its MAC zero.
type BucketRef struct {
	UUID  uuid.UUID
	Count uint32
	MAC   [16]byte
}

// Bucket holds a slice of a directory's entries. Bucket 0 — the paper's
// main bucket (§V-B) — is part of the main dirnode object; every further
// (overflow) bucket is sealed as an independent metadata object, so a
// large directory only rewrites the buckets it touches. Overflow flushes
// are copy-on-write: a dirty bucket is written under another name and
// the old object retired, so readers holding the previous main dirnode
// still find a consistent snapshot.
type Bucket struct {
	// UUID names an overflow bucket's object; its sealed parent is the
	// dirnode. Nil for bucket 0.
	UUID    uuid.UUID
	Entries []DirEntry
	// Dirty marks buckets needing a flush.
	Dirty bool
	// OnStore reports whether this bucket's current UUID exists as a
	// store object (false for bucket 0 and for buckets created in memory
	// and never flushed). Not serialized; loading sets it.
	OnStore bool
}

// writeEntries serializes a bucket's entry list: count ‖ (name ‖ uuid ‖
// kind ‖ symlink target)*.
func writeEntries(w *serial.Writer, entries []DirEntry) {
	w.WriteUint32(uint32(len(entries)))
	for _, e := range entries {
		w.WriteString(e.Name)
		w.WriteRaw(e.UUID[:])
		w.WriteUint8(uint8(e.Kind))
		w.WriteString(e.SymlinkTarget)
	}
}

// readEntries parses a list produced by writeEntries.
func readEntries(r *serial.Reader) ([]DirEntry, error) {
	n := r.ReadCount(0, "bucket entry count")
	// An entry is at least minEntryBytes long, so the bytes left bound
	// what a claimed count may allocate.
	const minEntryBytes = 4 + 16 + 1 + 4
	entries := make([]DirEntry, 0, min(n, r.Remaining()/minEntryBytes))
	for i := 0; i < n && r.Err() == nil; i++ {
		var e DirEntry
		e.Name = r.ReadString(0, "entry name")
		r.ReadRawInto(e.UUID[:], "entry uuid")
		e.Kind = EntryKind(r.ReadUint8("entry kind"))
		e.SymlinkTarget = r.ReadString(0, "symlink target")
		if r.Err() == nil && (e.Kind < KindFile || e.Kind > KindSymlink) {
			return nil, fmt.Errorf("%w: bad entry kind %d", ErrMalformed, e.Kind)
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// EncodeBody serializes an overflow bucket's body for Seal.
func (b *Bucket) EncodeBody() []byte {
	w := serial.NewWriter(4 + 32*len(b.Entries))
	writeEntries(w, b.Entries)
	return w.Bytes()
}

// DecodeBucketBody parses a body produced by Bucket.EncodeBody.
func DecodeBucketBody(body []byte) (*Bucket, error) {
	r := serial.NewReader(body)
	entries, err := readEntries(r)
	if err != nil {
		return nil, err
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("decoding bucket: %w", err)
	}
	return &Bucket{Entries: entries}, nil
}

// Dirnode represents one directory: its ACL and its bucketed entry list.
// The main dirnode object holds the ACL, bucket 0's entries and the
// references to the overflow buckets 1..n, so a directory that has never
// overflowed bucket 0 is a single object, replaced atomically by one put.
// Overflow buckets are loaded on demand; the in-memory Dirnode tracks
// which are resident.
type Dirnode struct {
	// UUID names the main dirnode object.
	UUID uuid.UUID
	// Parent is the containing dirnode (nil UUID for the volume root,
	// whose sealed parent is the supernode).
	Parent uuid.UUID
	// ACL is the directory's access control list.
	ACL acl.List
	// BucketSize caps entries per bucket.
	BucketSize uint32
	// Refs is the bucket table, never empty: Refs[0] counts bucket 0 and
	// Refs[1:] mirror the sealed main object's overflow references. Only
	// a main object in the legacy layout, decoded and not yet flushed,
	// has a Refs[0] that names a separate object.
	Refs []BucketRef
	// Buckets holds resident (loaded) buckets, indexed as Refs.
	// A nil slot means not loaded; bucket 0 is resident whenever the
	// main object is, the legacy layout excepted.
	Buckets []*Bucket
	// Retired lists bucket objects superseded by the previous flush's
	// copy-on-write rewrites; the next flush overwrites or deletes them.
	// Keeping one retired generation lets concurrent readers of the
	// previous main object finish their traversals.
	Retired []uuid.UUID
}

// NewDirnode creates an empty directory.
func NewDirnode(id, parent uuid.UUID, bucketSize uint32) *Dirnode {
	if bucketSize == 0 {
		bucketSize = DefaultBucketSize
	}
	return &Dirnode{
		UUID: id, Parent: parent, BucketSize: bucketSize,
		Refs: make([]BucketRef, 1), Buckets: []*Bucket{{}},
	}
}

// EncodeBody serializes the main dirnode body:
//
//	ACL ‖ uint32(0) ‖ BucketSize ‖ bucket-0 entries ‖
//	count ‖ (UUID ‖ Count ‖ MAC)* of buckets 1..n ‖ count ‖ retired UUID*
//
// The zero where the legacy layout (ACL ‖ BucketSize(>0) ‖ refs of
// buckets 0..n ‖ retired) kept its bucket size — a value that layout's
// decoder has always rejected — marks this one, so every historical blob
// still decodes down the legacy path and old clients fail closed on new
// blobs. Bucket 0 must be resident (LoadMain).
func (d *Dirnode) EncodeBody() []byte {
	main := d.Buckets[0].Entries
	w := serial.NewWriter(64 + 32*len(main) + 36*len(d.Refs) + 16*len(d.Retired))
	d.ACL.Encode(w)
	w.WriteUint32(0) // layout sentinel: no legacy bucket size
	w.WriteUint32(d.BucketSize)
	writeEntries(w, main)
	w.WriteUint32(uint32(len(d.Refs) - 1))
	for _, ref := range d.Refs[1:] {
		w.WriteRaw(ref.UUID[:])
		w.WriteUint32(ref.Count)
		w.WriteRaw(ref.MAC[:])
	}
	w.WriteUint32(uint32(len(d.Retired)))
	for _, id := range d.Retired {
		w.WriteRaw(id[:])
	}
	return w.Bytes()
}

// DecodeDirnodeBody parses a body produced by EncodeBody, or one in the
// legacy layout (whose bucket 0 then loads through Refs[0] until the
// directory's next flush rewrites it). The caller supplies the UUID and
// parent from the verified preamble.
func DecodeDirnodeBody(id, parent uuid.UUID, body []byte) (*Dirnode, error) {
	r := serial.NewReader(body)
	d := &Dirnode{UUID: id, Parent: parent}
	d.ACL = acl.DecodeList(r)
	d.BucketSize = r.ReadUint32("bucket size")
	legacy := d.BucketSize != 0
	if !legacy {
		d.BucketSize = r.ReadUint32("bucket size")
		entries, err := readEntries(r)
		if err != nil {
			return nil, err
		}
		d.Refs = []BucketRef{{Count: uint32(len(entries))}}
		d.Buckets = []*Bucket{{Entries: entries}}
	}
	n := r.ReadCount(0, "bucket ref count")
	for i := 0; i < n && r.Err() == nil; i++ {
		var ref BucketRef
		r.ReadRawInto(ref.UUID[:], "bucket uuid")
		ref.Count = r.ReadUint32("bucket count")
		r.ReadRawInto(ref.MAC[:], "bucket mac")
		d.Refs = append(d.Refs, ref)
		d.Buckets = append(d.Buckets, nil)
	}
	nRetired := r.ReadCount(0, "retired bucket count")
	for i := 0; i < nRetired && r.Err() == nil; i++ {
		var id uuid.UUID
		r.ReadRawInto(id[:], "retired bucket uuid")
		d.Retired = append(d.Retired, id)
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("decoding dirnode: %w", err)
	}
	if d.BucketSize == 0 {
		return nil, fmt.Errorf("%w: zero bucket size", ErrMalformed)
	}
	if legacy && len(d.Refs) == 0 {
		// A legacy directory that never held an entry has no bucket 0 to
		// migrate.
		d.Refs, d.Buckets = make([]BucketRef, 1), []*Bucket{{}}
	}
	return d, nil
}

// EntryCount returns the directory's total entry count without loading
// buckets.
func (d *Dirnode) EntryCount() int {
	total := 0
	for _, ref := range d.Refs {
		total += int(ref.Count)
	}
	return total
}

// bucketLoader fetches and verifies the bucket at index i; the enclave
// supplies one that performs the ocall, Open, and MAC comparison.
type bucketLoader func(i int) (*Bucket, error)

// ensureBucket returns the bucket at index i, loading it if necessary.
func (d *Dirnode) ensureBucket(i int, load bucketLoader) (*Bucket, error) {
	if i < 0 || i >= len(d.Buckets) {
		return nil, fmt.Errorf("%w: bucket index %d of %d", ErrMalformed, i, len(d.Buckets))
	}
	if d.Buckets[i] != nil {
		return d.Buckets[i], nil
	}
	b, err := load(i)
	if err != nil {
		return nil, err
	}
	b.UUID = d.Refs[i].UUID
	b.OnStore = true
	d.Buckets[i] = b
	return b, nil
}

// LoadMain makes bucket 0 resident, which EncodeBody requires. It only
// ever loads for a main object decoded from the legacy layout.
func (d *Dirnode) LoadMain(load bucketLoader) error {
	_, err := d.ensureBucket(0, load)
	return err
}

// Lookup finds an entry by name, loading buckets on demand.
func (d *Dirnode) Lookup(name string, load bucketLoader) (DirEntry, error) {
	for i := range d.Refs {
		b, err := d.ensureBucket(i, load)
		if err != nil {
			return DirEntry{}, err
		}
		for _, e := range b.Entries {
			if e.Name == name {
				return e, nil
			}
		}
	}
	return DirEntry{}, fmt.Errorf("%w: %q", ErrEntryNotFound, name)
}

// List returns all entries in bucket order.
func (d *Dirnode) List(load bucketLoader) ([]DirEntry, error) {
	out := make([]DirEntry, 0, d.EntryCount())
	for i := range d.Refs {
		b, err := d.ensureBucket(i, load)
		if err != nil {
			return nil, err
		}
		out = append(out, b.Entries...)
	}
	return out, nil
}

// Insert adds an entry, filling the last non-full bucket or creating a
// new one. It fails with ErrEntryExists on a name collision.
func (d *Dirnode) Insert(e DirEntry, load bucketLoader) error {
	if _, err := d.Lookup(e.Name, load); err == nil {
		return fmt.Errorf("%w: %q", ErrEntryExists, e.Name)
	} else if !errors.Is(err, ErrEntryNotFound) {
		return err
	}
	// Find a bucket with room.
	for i := range d.Refs {
		if d.Refs[i].Count < d.BucketSize {
			b, err := d.ensureBucket(i, load)
			if err != nil {
				return err
			}
			b.Entries = append(b.Entries, e)
			b.Dirty = true
			d.Refs[i].Count++
			return nil
		}
	}
	// All buckets full: start a new one.
	b := &Bucket{UUID: uuid.New(), Entries: []DirEntry{e}, Dirty: true}
	d.Refs = append(d.Refs, BucketRef{UUID: b.UUID, Count: 1})
	d.Buckets = append(d.Buckets, b)
	return nil
}

// Remove deletes the named entry and returns it. Empty buckets are kept
// (their objects shrink but remain), matching the prototype's behaviour
// of only rewriting dirty buckets.
func (d *Dirnode) Remove(name string, load bucketLoader) (DirEntry, error) {
	for i := range d.Refs {
		b, err := d.ensureBucket(i, load)
		if err != nil {
			return DirEntry{}, err
		}
		for j, e := range b.Entries {
			if e.Name == name {
				b.Entries = append(b.Entries[:j], b.Entries[j+1:]...)
				b.Dirty = true
				d.Refs[i].Count--
				return e, nil
			}
		}
	}
	return DirEntry{}, fmt.Errorf("%w: %q", ErrEntryNotFound, name)
}

// DirtyBuckets returns the indices of the overflow buckets needing a
// flush of their own. Bucket 0 is not among them: it is sealed with the
// main object, which every flush rewrites.
func (d *Dirnode) DirtyBuckets() []int {
	var out []int
	for i := 1; i < len(d.Buckets); i++ {
		if b := d.Buckets[i]; b != nil && b.Dirty {
			out = append(out, i)
		}
	}
	return out
}
