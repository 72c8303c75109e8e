package metadata

import (
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"testing/quick"

	"nexus/internal/uuid"
)

func TestFilenodeEncryptDecryptRoundTrip(t *testing.T) {
	for _, size := range []int{0, 1, 100, 1024, 4096, 5000} {
		f := NewFilenode(uuid.New(), uuid.New(), 1024)
		pt := make([]byte, size)
		if _, err := rand.Read(pt); err != nil {
			t.Fatal(err)
		}
		blob, err := f.EncryptContent(pt)
		if err != nil {
			t.Fatalf("size %d: EncryptContent: %v", size, err)
		}
		wantChunks := (size + 1023) / 1024
		if len(blob) != size+wantChunks*16 {
			t.Fatalf("size %d: sealed blob %d bytes, want %d (ciphertext + inline tag per chunk)",
				size, len(blob), size+wantChunks*16)
		}
		// A 1-byte ciphertext can coincide with its plaintext by chance
		// (p=1/256); only assert divergence where coincidence is
		// cryptographically negligible.
		if size >= 16 && bytes.Equal(blob[:size], pt) {
			t.Fatal("ciphertext equals plaintext")
		}
		if len(f.Chunks) != wantChunks || f.NumChunks() != wantChunks {
			t.Fatalf("size %d: chunks = %d, want %d", size, len(f.Chunks), wantChunks)
		}
		got, err := f.DecryptContent(blob)
		if err != nil {
			t.Fatalf("size %d: DecryptContent: %v", size, err)
		}
		if !bytes.Equal(got, pt) {
			t.Fatalf("size %d: round trip mismatch", size)
		}
	}
}

func TestFilenodeFreshKeysPerUpdate(t *testing.T) {
	f := NewFilenode(uuid.New(), uuid.Nil, 1024)
	pt := bytes.Repeat([]byte{7}, 2048)
	if _, err := f.EncryptContent(pt); err != nil {
		t.Fatal(err)
	}
	firstKey := f.ContentKey
	firstCtx := make([]ChunkContext, len(f.Chunks))
	copy(firstCtx, f.Chunks)
	if _, err := f.EncryptContent(pt); err != nil {
		t.Fatal(err)
	}
	if f.ContentKey == firstKey {
		t.Fatal("content key reused across updates")
	}
	for i := range f.Chunks {
		if f.Chunks[i].IV == firstCtx[i].IV {
			t.Fatalf("chunk %d IV reused across updates", i)
		}
	}
}

func TestFilenodeChunkSwapDetected(t *testing.T) {
	f := NewFilenode(uuid.New(), uuid.Nil, 16)
	pt := bytes.Repeat([]byte{1}, 48) // 3 chunks; sealed stride 32
	blob, err := f.EncryptContent(pt)
	if err != nil {
		t.Fatal(err)
	}
	// Swap sealed chunks 0 and 1 in the data object AND their contexts —
	// the position is bound via AAD, so even a consistent swap fails.
	swapped := bytes.Clone(blob)
	copy(swapped[0:32], blob[32:64])
	copy(swapped[32:64], blob[0:32])
	f.Chunks[0], f.Chunks[1] = f.Chunks[1], f.Chunks[0]
	if _, err := f.DecryptContent(swapped); !errors.Is(err, ErrTampered) {
		t.Fatalf("chunk swap accepted: %v", err)
	}
}

func TestFilenodeTamperAndTruncationDetected(t *testing.T) {
	f := NewFilenode(uuid.New(), uuid.Nil, 32)
	pt := bytes.Repeat([]byte{3}, 100)
	blob, err := f.EncryptContent(pt)
	if err != nil {
		t.Fatal(err)
	}
	mut := bytes.Clone(blob)
	mut[50] ^= 1
	if _, err := f.DecryptContent(mut); !errors.Is(err, ErrTampered) {
		t.Fatalf("ciphertext flip accepted: %v", err)
	}
	if _, err := f.DecryptContent(blob[:len(blob)-1]); !errors.Is(err, ErrTampered) {
		t.Fatalf("truncation accepted: %v", err)
	}
	if _, err := f.DecryptContent(append(bytes.Clone(blob), 0)); !errors.Is(err, ErrTampered) {
		t.Fatalf("extension accepted: %v", err)
	}
	// Flipping an inline tag byte must fail even though the ciphertext
	// bytes are intact.
	tagFlip := bytes.Clone(blob)
	tagFlip[32+16-1] ^= 1 // last tag byte of chunk 0
	if _, err := f.DecryptContent(tagFlip); !errors.Is(err, ErrTampered) {
		t.Fatalf("inline tag flip accepted: %v", err)
	}
}

func TestFilenodeCrossFileTransplantDetected(t *testing.T) {
	// Data encrypted for one file must not decrypt under another file's
	// filenode even if the full crypto context is copied (AAD binds the
	// data UUID).
	f1 := NewFilenode(uuid.New(), uuid.Nil, 64)
	f2 := NewFilenode(uuid.New(), uuid.Nil, 64)
	pt := bytes.Repeat([]byte{5}, 64)
	blob, err := f1.EncryptContent(pt)
	if err != nil {
		t.Fatal(err)
	}
	f2.Size = f1.Size
	f2.ContentKey = f1.ContentKey
	f2.Chunks = append([]ChunkContext(nil), f1.Chunks...)
	if _, err := f2.DecryptContent(blob); !errors.Is(err, ErrTampered) {
		t.Fatalf("cross-file transplant accepted: %v", err)
	}
}

func TestFilenodeEncodeDecode(t *testing.T) {
	f := NewFilenode(uuid.New(), uuid.New(), 1<<20)
	f.LinkCount = 3
	pt := bytes.Repeat([]byte{9}, 3<<20)
	if _, err := f.EncryptContent(pt); err != nil {
		t.Fatal(err)
	}

	got, err := DecodeFilenodeBody(f.UUID, f.Parent, f.EncodeBody())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.DataUUID != f.DataUUID || got.Size != f.Size ||
		got.ChunkSize != f.ChunkSize || got.LinkCount != 3 {
		t.Fatalf("fields lost: %+v", got)
	}
	if got.ContentKey != f.ContentKey {
		t.Fatal("content key lost")
	}
	if len(got.Chunks) != 3 {
		t.Fatalf("chunks = %d", len(got.Chunks))
	}
	for i := range f.Chunks {
		if got.Chunks[i] != f.Chunks[i] {
			t.Fatalf("chunk %d context lost", i)
		}
	}
	if _, err := DecodeFilenodeBody(f.UUID, f.Parent, f.EncodeBody()[:20]); err == nil {
		t.Fatal("truncated filenode accepted")
	}
	// A decoded filenode must decrypt what the original sealed (the AAD
	// cache is rebuilt, not serialized).
	blob, err := f.EncryptContent(pt)
	if err != nil {
		t.Fatal(err)
	}
	got, err = DecodeFilenodeBody(f.UUID, f.Parent, f.EncodeBody())
	if err != nil {
		t.Fatal(err)
	}
	rt, err := got.DecryptContent(blob)
	if err != nil {
		t.Fatalf("decoded filenode cannot decrypt: %v", err)
	}
	if !bytes.Equal(rt, pt) {
		t.Fatal("decoded filenode round trip mismatch")
	}
}

func TestFilenodeMetadataOverhead(t *testing.T) {
	f := NewFilenode(uuid.New(), uuid.Nil, 1<<20)
	pt := make([]byte, 10<<20) // 10 chunks
	if _, err := f.EncryptContent(pt); err != nil {
		t.Fatal(err)
	}
	// One 16-byte content key per update plus 28 bytes (IV+tag) per
	// 1 MiB chunk.
	if got := f.MetadataOverhead(); got != 16+10*28 {
		t.Fatalf("MetadataOverhead = %d, want %d", got, 16+10*28)
	}
}

func TestFilenodeIntoBufferTooSmall(t *testing.T) {
	f := NewFilenode(uuid.New(), uuid.Nil, 1024)
	pt := make([]byte, 4096)
	if _, err := f.EncryptContentInto(make([]byte, 0, 10), pt, 1); err == nil {
		t.Fatal("undersized encrypt destination accepted")
	}
	blob, err := f.EncryptContent(pt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.DecryptContentInto(make([]byte, 0, 10), blob, 1); err == nil {
		t.Fatal("undersized decrypt destination accepted")
	}
	// And a correctly sized caller-owned buffer round-trips.
	dst := make([]byte, 0, f.SealedSize(len(pt)))
	sealed, err := f.EncryptContentInto(dst, pt, 1)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 0, len(pt))
	got, err := f.DecryptContentInto(out, sealed, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pt) {
		t.Fatal("Into round trip mismatch")
	}
}

func TestQuickFilenodeRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		fn := NewFilenode(uuid.New(), uuid.Nil, 256)
		blob, err := fn.EncryptContent(data)
		if err != nil {
			return false
		}
		got, err := fn.DecryptContent(blob)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestFilenodeLegacyChunkCountMismatchRejected is the size-accounting
// regression: a blob whose chunk-context count disagrees with
// ceil(Size/ChunkSize) — a stale Size from a buggy or tampered writer —
// must fail decode instead of lurking until read.
func TestFilenodeLegacyChunkCountMismatchRejected(t *testing.T) {
	f := NewFilenode(uuid.New(), uuid.New(), 1024)
	pt := make([]byte, 2500) // 3 chunks
	if _, err := rand.Read(pt); err != nil {
		t.Fatal(err)
	}
	if _, err := f.EncryptContent(pt); err != nil {
		t.Fatal(err)
	}
	body := f.EncodeBody()
	if _, err := DecodeFilenodeBody(f.UUID, f.Parent, body); err != nil {
		t.Fatalf("honest blob rejected: %v", err)
	}
	// Shrink the recorded size without touching the chunk table: the
	// decoder must notice 3 contexts can't belong to a 1-chunk file.
	bad := bytes.Clone(body)
	binary.LittleEndian.PutUint64(bad[uuid.Size:], 1000)
	if _, err := DecodeFilenodeBody(f.UUID, f.Parent, bad); !errors.Is(err, ErrMalformed) {
		t.Fatalf("stale-size blob error = %v, want ErrMalformed", err)
	}
	// Zero-size with leftover chunk contexts is the truncate-to-empty
	// variant of the same corruption.
	bad2 := bytes.Clone(body)
	binary.LittleEndian.PutUint64(bad2[uuid.Size:], 0)
	if _, err := DecodeFilenodeBody(f.UUID, f.Parent, bad2); !errors.Is(err, ErrMalformed) {
		t.Fatalf("zero-size blob with chunks error = %v, want ErrMalformed", err)
	}
}

// TestFilenodeTruncateAccounting pins the in-memory accounting across
// shrinking rewrites: truncate-to-shorter must drop trailing chunk
// contexts, truncate-to-empty must drop all of them, and the final
// partial chunk must seal at its short length, not the full chunk size.
func TestFilenodeTruncateAccounting(t *testing.T) {
	f := NewFilenode(uuid.New(), uuid.New(), 1024)
	write := func(n int) []byte {
		t.Helper()
		pt := make([]byte, n)
		if _, err := rand.Read(pt); err != nil {
			t.Fatal(err)
		}
		blob, err := f.EncryptContent(pt)
		if err != nil {
			t.Fatalf("EncryptContent(%d): %v", n, err)
		}
		if got, err := f.DecryptContent(blob); err != nil || !bytes.Equal(got, pt) {
			t.Fatalf("round trip at %d bytes: %v", n, err)
		}
		return blob
	}

	write(5000) // 5 chunks
	if len(f.Chunks) != 5 {
		t.Fatalf("chunks = %d, want 5", len(f.Chunks))
	}
	// Truncate to a shorter content that ends mid-chunk.
	blob := write(1500) // 2 chunks, final one 476 bytes
	if len(f.Chunks) != 2 || f.NumChunks() != 2 || f.Size != 1500 {
		t.Fatalf("after truncate: chunks=%d size=%d", len(f.Chunks), f.Size)
	}
	if len(blob) != 1500+2*16 {
		t.Fatalf("sealed blob %d bytes, want %d", len(blob), 1500+2*16)
	}
	// Overwrite only the final partial chunk's worth of growth: sizes
	// around the chunk boundary.
	for _, n := range []int{1023, 1024, 1025} {
		write(n)
		want := 1
		if n > 1024 {
			want = 2
		}
		if len(f.Chunks) != want || f.SealedSize(n) != n+want*16 {
			t.Fatalf("size %d: chunks=%d sealed=%d", n, len(f.Chunks), f.SealedSize(n))
		}
	}
	// Truncate to empty: no chunks, no stale contexts, decode clean.
	write(0)
	if len(f.Chunks) != 0 || f.Size != 0 || f.SealedSize(0) != 0 {
		t.Fatalf("after truncate-to-empty: chunks=%d size=%d", len(f.Chunks), f.Size)
	}
	got, err := DecodeFilenodeBody(f.UUID, f.Parent, f.EncodeBody())
	if err != nil {
		t.Fatalf("decode after truncate-to-empty: %v", err)
	}
	if got.NumChunks() != 0 {
		t.Fatalf("decoded chunk count %d after truncate-to-empty", got.NumChunks())
	}
}

// TestFilenodeRetiredLayoutFailsClosed: a body in the content-defined
// layout — testdata/extent-layout.body is what the last commit with that
// layout encoded for a three-extent file — is refused by name, as is
// anything else with a zero where the chunk size stands.
func TestFilenodeRetiredLayoutFailsClosed(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "extent-layout.body"))
	if err != nil {
		t.Fatal(err)
	}
	zeroed := NewFilenode(uuid.New(), uuid.New(), 1024).EncodeBody()
	binary.LittleEndian.PutUint32(zeroed[uuid.Size+8:], 0)
	for name, body := range map[string][]byte{"golden": golden, "zeroed chunk size": zeroed} {
		_, err := DecodeFilenodeBody(uuid.UUID{1}, uuid.UUID{2}, body)
		if !errors.Is(err, ErrUnsupportedLayout) {
			t.Fatalf("%s: DecodeFilenodeBody = %v, want ErrUnsupportedLayout", name, err)
		}
		if errors.Is(err, ErrMalformed) || errors.Is(err, ErrTampered) {
			t.Fatalf("%s: %v also matches ErrMalformed or ErrTampered", name, err)
		}
	}
}

// goldenFilenodes builds the two filenodes behind testdata/filenode-*.body:
// a three-chunk file (that body was encoded by the commit before the
// inline layout existed, so the chunked layout is pinned byte for byte) and
// an inline one.
func goldenFilenodes() (chunked, inline *Filenode) {
	chunked = &Filenode{UUID: uuid.UUID{1}, Parent: uuid.UUID{2}, DataUUID: uuid.UUID{0xda, 0x7a},
		Size: 2500, ChunkSize: 1024, LinkCount: 1}
	for i := range chunked.ContentKey {
		chunked.ContentKey[i] = byte(i)
	}
	chunked.Chunks = make([]ChunkContext, 3)
	for i := range chunked.Chunks {
		for j := range chunked.Chunks[i].IV {
			chunked.Chunks[i].IV[j] = byte(0x10*(i+1) + j)
		}
		for j := range chunked.Chunks[i].Tag {
			chunked.Chunks[i].Tag[j] = byte(0x80 + 0x10*i + j)
		}
	}
	inline = &Filenode{UUID: uuid.UUID{1}, Parent: uuid.UUID{2}, ChunkSize: DefaultChunkSize, LinkCount: 1}
	inline.SetInline([]byte("a small file is one object: these bytes ride inside its sealed filenode\n"))
	return chunked, inline
}

// TestFilenodeBodyGoldens pins both layouts: each golden body is what the
// encoder writes, and decodes back to the filenode it came from. The
// commit before the inline layout rejects filenode-inline.body ("72
// trailing bytes after structure"), so an older enclave fails closed on a
// volume with inline files.
func TestFilenodeBodyGoldens(t *testing.T) {
	chunked, inline := goldenFilenodes()
	for name, want := range map[string]*Filenode{"filenode-chunked.body": chunked, "filenode-inline.body": inline} {
		golden := readGolden(t, name)
		if body := want.EncodeBody(); !bytes.Equal(body, golden) {
			t.Fatalf("%s: encoder writes\n%x\nwant\n%x", name, body, golden)
		}
		got, err := DecodeFilenodeBody(want.UUID, want.Parent, golden)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.DataUUID != want.DataUUID || got.Size != want.Size || got.ContentKey != want.ContentKey ||
			!slices.Equal(got.Chunks, want.Chunks) || !bytes.Equal(got.Inline, want.Inline) ||
			got.HasDataObject() != want.HasDataObject() {
			t.Fatalf("%s decodes to %+v, want %+v", name, got, want)
		}
	}
}

// TestFilenodeInlineCap: the cap is the content that makes the sealed
// filenode exactly one 4 KiB page, and the decoder takes no inline content
// past it.
func TestFilenodeInlineCap(t *testing.T) {
	if MaxInlineSize != 3927 {
		t.Fatalf("MaxInlineSize = %d, want 3927 (4096 − 117 seal overhead − 52 body prefix)", MaxInlineSize)
	}
	rk := make([]byte, RootKeySize)
	f := NewFilenode(uuid.New(), uuid.New(), 0)
	f.SetInline(make([]byte, MaxInlineSize))
	sealed, err := Seal(rk, Preamble{Type: TypeFilenode, UUID: f.UUID, Parent: f.Parent, Version: 1}, f.EncodeBody())
	if err != nil {
		t.Fatal(err)
	}
	if len(sealed) != 4096 {
		t.Fatalf("a filenode holding %d bytes seals to %d bytes, want 4096", MaxInlineSize, len(sealed))
	}
	over := append(f.EncodeBody(), 0)
	binary.LittleEndian.PutUint64(over[uuid.Size:], MaxInlineSize+1)
	if _, err := DecodeFilenodeBody(f.UUID, f.Parent, over); !errors.Is(err, ErrMalformed) {
		t.Fatalf("inline content of MaxInlineSize+1 bytes: %v, want ErrMalformed", err)
	}
	short := f.EncodeBody()[:filenodePrefixSize+MaxInlineSize-1]
	if _, err := DecodeFilenodeBody(f.UUID, f.Parent, short); err == nil {
		t.Fatal("inline content shorter than Size decoded")
	}
}

// FuzzFilenodeBodyDecode drives the post-unwrap filenode decoder with
// arbitrary bytes: it must never panic, a zero chunk-size word is the
// retired layout whatever follows it, and whatever it accepts is either
// chunked — as many chunk contexts as its size needs — or inline — exactly
// Size ≤ MaxInlineSize bytes of content — and re-encodes to exactly the
// bytes it was given.
func FuzzFilenodeBodyDecode(f *testing.F) {
	fn := NewFilenode(uuid.New(), uuid.New(), 1024)
	f.Add(fn.EncodeBody())
	if _, err := fn.EncryptContent(make([]byte, 2500)); err != nil {
		f.Fatal(err)
	}
	fn.LinkCount = 2
	f.Add(fn.EncodeBody())
	fn.SetInline([]byte("inline"))
	f.Add(fn.EncodeBody())
	fn.SetInline(make([]byte, MaxInlineSize))
	f.Add(fn.EncodeBody())
	for _, name := range []string{"extent-layout.body", "filenode-chunked.body", "filenode-inline.body"} {
		if golden, err := os.ReadFile(filepath.Join("testdata", name)); err == nil {
			f.Add(golden)
		}
	}
	// A size whose rounding up to whole chunks wraps, with no contexts.
	wraps := NewFilenode(uuid.New(), uuid.New(), 2).EncodeBody()
	binary.LittleEndian.PutUint64(wraps[uuid.Size:], ^uint64(0))
	f.Add(wraps)
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := DecodeFilenodeBody(uuid.UUID{1}, uuid.UUID{2}, body)
		const chunkWord = uuid.Size + 8
		retired := len(body) >= chunkWord+4 && binary.LittleEndian.Uint32(body[chunkWord:]) == 0
		if retired != errors.Is(err, ErrUnsupportedLayout) {
			t.Fatalf("chunk-size word zero = %v, error = %v", retired, err)
		}
		if err != nil {
			return
		}
		// The contexts tile the size: the last chunk starts inside it and
		// ends at or past its end. Without contexts, the content is inline.
		n, cs := uint64(len(got.Chunks)), uint64(got.ChunkSize)
		chunked := cs > 0 && n > 0 && n*cs >= got.Size && (n-1)*cs < got.Size
		inline := cs > 0 && n == 0 && uint64(len(got.Inline)) == got.Size && got.Size <= MaxInlineSize
		if !chunked && !inline {
			t.Fatalf("accepted filenode breaks its invariants: size %d, chunk size %d, %d contexts, %d inline bytes",
				got.Size, got.ChunkSize, len(got.Chunks), len(got.Inline))
		}
		if again := got.EncodeBody(); !bytes.Equal(again, body) {
			t.Fatalf("decode → encode differs:\n in %x\nout %x", body, again)
		}
	})
}
