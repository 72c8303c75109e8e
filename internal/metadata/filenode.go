package metadata

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"nexus/internal/parallel"
	"nexus/internal/serial"
	"nexus/internal/uuid"
)

// DefaultChunkSize is the default file chunk size; the paper's
// evaluation uses 1 MiB chunks (§VII).
const DefaultChunkSize = 1 << 20

// serialCutoffBytes is the content size below which chunk crypto always
// runs serially: under ~128 KiB a single AES-GCM pass is cheaper than
// any goroutine fan-out, so small files pay zero pipeline overhead.
const serialCutoffBytes = 128 << 10

// aadSize is the per-chunk associated-data length: the data object's
// UUID plus the chunk index (see ensureAAD).
const aadSize = uuid.Size + 8

// filenodePrefixSize is the body's fixed prefix: DataUUID ‖ Size ‖
// ChunkSize ‖ LinkCount ‖ ContentKey ‖ count.
const filenodePrefixSize = uuid.Size + 8 + 4 + 4 + BodyKeySize + 4

// MaxInlineSize is the largest file whose bytes are sealed inside its
// filenode instead of a data object: the sealed filenode is then at most
// one 4 KiB page (3 927 bytes of content with today's seal overhead).
const MaxInlineSize = 4096 - headerSize - tagSize - filenodePrefixSize

// ChunkContext is the per-chunk cryptographic context: IV and
// authentication tag (§IV-A1). The chunk key lives once per update in
// Filenode.ContentKey rather than per chunk: our update granularity is
// the whole content (EncryptContent re-seals every chunk), so a single
// fresh-per-update key with a unique random IV per chunk gives the same
// guarantee the paper's per-chunk keys do — no (key, IV) pair ever
// seals two plaintexts — while cutting metadata overhead from 44 to 28
// bytes per chunk and, critically, letting the hot path build one AEAD
// per operation instead of one per chunk (the per-chunk cipher.NewGCM
// was ~2 heap allocations and a key schedule per megabyte).
type ChunkContext struct {
	IV  [ivSize]byte
	Tag [tagSize]byte
}

// Filenode stores the metadata needed to access one data file: the data
// object's UUID, the update's content key, and the per-chunk encryption
// contexts (§IV-A1) — or, for a file of at most MaxInlineSize bytes, the
// content itself, with no data object at all.
type Filenode struct {
	// UUID names the filenode metadata object.
	UUID uuid.UUID
	// Parent is the containing dirnode.
	Parent uuid.UUID
	// DataUUID names the encrypted data object on the store.
	DataUUID uuid.UUID
	// Size is the plaintext file size in bytes.
	Size uint64
	// ChunkSize is the fixed plaintext chunk size.
	ChunkSize uint32
	// LinkCount counts directory entries referencing this filenode
	// (hardlinks).
	LinkCount uint32
	// ContentKey is the AES key protecting every chunk of the current
	// content version; it is regenerated on every update ("re-encrypted
	// using fresh keys on every file content update", §VI-A).
	ContentKey [BodyKeySize]byte
	// Chunks holds one context per chunk, in order. A file has a data
	// object exactly when it has chunks.
	Chunks []ChunkContext
	// Inline is the plaintext of a non-empty file without chunks (Size
	// bytes, sealed with the filenode body).
	Inline []byte

	// aad caches the concatenated per-chunk associated data
	// (DataUUID‖index), rebuilt only when the data UUID or chunk count
	// changes, so steady-state crypto slices it without allocating.
	// Like the exported crypto methods themselves, access is not
	// synchronized: a Filenode must not be used concurrently.
	aad     []byte
	aadUUID uuid.UUID
}

// NewFilenode creates an empty file's metadata.
func NewFilenode(id, parent uuid.UUID, chunkSize uint32) *Filenode {
	if chunkSize == 0 {
		chunkSize = DefaultChunkSize
	}
	return &Filenode{
		UUID:      id,
		Parent:    parent,
		DataUUID:  uuid.New(),
		ChunkSize: chunkSize,
		LinkCount: 1,
	}
}

// ErrUnsupportedLayout reports a filenode in the retired content-defined
// layout, which wrote a zero where ChunkSize stands (DESIGN.md §16). No
// reader for it is kept: such a volume is copied out with the last
// commit that wrote it.
var ErrUnsupportedLayout = errors.New("metadata: filenode uses the retired content-defined layout")

// EncodeBody serializes the filenode body for Seal:
//
//	DataUUID ‖ Size ‖ ChunkSize(>0) ‖ LinkCount ‖ ContentKey ‖ count ‖ (IV‖Tag)*
//
// or, inline, a zero count followed by the Size bytes of content.
func (f *Filenode) EncodeBody() []byte {
	w := serial.NewWriter(filenodePrefixSize + len(f.Chunks)*(ivSize+tagSize) + len(f.Inline))
	w.WriteRaw(f.DataUUID[:])
	w.WriteUint64(f.Size)
	w.WriteUint32(f.ChunkSize)
	w.WriteUint32(f.LinkCount)
	w.WriteRaw(f.ContentKey[:])
	w.WriteUint32(uint32(len(f.Chunks)))
	for i := range f.Chunks {
		w.WriteRaw(f.Chunks[i].IV[:])
		w.WriteRaw(f.Chunks[i].Tag[:])
	}
	w.WriteRaw(f.Inline)
	return w.Bytes()
}

// DecodeFilenodeBody parses a body produced by EncodeBody. UUID and
// parent come from the verified preamble. The recorded Size is
// cross-checked against the chunk count, so a stale size / chunk
// mismatch is rejected at decode instead of surfacing later as a read
// failure; a zero count with a non-zero Size is the inline layout, whose
// content must be exactly Size ≤ MaxInlineSize bytes.
func DecodeFilenodeBody(id, parent uuid.UUID, body []byte) (*Filenode, error) {
	r := serial.NewReader(body)
	f := &Filenode{UUID: id, Parent: parent}
	r.ReadRawInto(f.DataUUID[:], "data uuid")
	f.Size = r.ReadUint64("file size")
	f.ChunkSize = r.ReadUint32("chunk size")
	if r.Err() == nil && f.ChunkSize == 0 {
		return nil, ErrUnsupportedLayout
	}
	f.LinkCount = r.ReadUint32("link count")
	r.ReadRawInto(f.ContentKey[:], "content key")
	n := r.ReadCount(0, "chunk count")
	if n > r.Remaining()/(ivSize+tagSize) {
		return nil, fmt.Errorf("%w: %d chunk contexts in %d bytes", ErrMalformed, n, r.Remaining())
	}
	if n > 0 {
		f.Chunks = make([]ChunkContext, n)
	}
	for i := 0; i < n; i++ {
		r.ReadRawInto(f.Chunks[i].IV[:], "chunk iv")
		r.ReadRawInto(f.Chunks[i].Tag[:], "chunk tag")
	}
	if n == 0 && f.Size > 0 {
		if f.Size > MaxInlineSize {
			return nil, fmt.Errorf("%w: inline content of %d bytes", ErrMalformed, f.Size)
		}
		f.Inline = r.ReadRaw(int(f.Size), "inline content")
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("decoding filenode: %w", err)
	}
	if n > 0 && n != f.NumChunks() {
		return nil, fmt.Errorf("%w: %d chunk contexts for size %d (chunk size %d, want %d)",
			ErrMalformed, n, f.Size, f.ChunkSize, f.NumChunks())
	}
	return f, nil
}

// HasDataObject reports whether the content lives in a data object (the
// chunked layout) rather than in the filenode.
func (f *Filenode) HasDataObject() bool { return len(f.Chunks) > 0 }

// SetInline makes data — at most MaxInlineSize bytes, copied — the file's
// content, sealed with the filenode: no data object, chunks or content key.
func (f *Filenode) SetInline(data []byte) {
	f.Size = uint64(len(data))
	f.Inline = bytes.Clone(data)
	f.Chunks = nil
	f.DataUUID = uuid.Nil
	f.ContentKey = [BodyKeySize]byte{}
}

// Clone returns a copy of f that shares no mutable state with it.
func (f *Filenode) Clone() *Filenode {
	c := *f
	c.Chunks = slices.Clone(f.Chunks)
	c.Inline = bytes.Clone(f.Inline)
	c.aad, c.aadUUID = nil, uuid.Nil
	return &c
}

// NumChunks returns the chunk count for the current plaintext size.
func (f *Filenode) NumChunks() int {
	if f.Size == 0 {
		return 0
	}
	// Not (Size + ChunkSize − 1) / ChunkSize: a decoded Size near 2^64
	// would wrap to a small count and pass DecodeFilenodeBody's check.
	return int((f.Size-1)/uint64(f.ChunkSize)) + 1
}

// SealedSize returns the data-object size for plainLen plaintext bytes:
// each chunk carries its GCM tag inline (ciphertext‖tag), so the blob
// grows by tagSize per chunk. Inline tags are what make the data path
// zero-copy: Seal writes ciphertext and tag in one pass directly into
// the output slot, and Open reads a contiguous sealed chunk straight
// out of the fetched blob — neither side re-assembles chunk+tag in
// scratch the way the tag-in-filenode layout forced.
func (f *Filenode) SealedSize(plainLen int) int {
	if plainLen <= 0 {
		return 0
	}
	chunks := (plainLen + int(f.ChunkSize) - 1) / int(f.ChunkSize)
	return plainLen + chunks*tagSize
}

// chunkBounds returns chunk i's plaintext byte range within a content of
// total bytes.
func (f *Filenode) chunkBounds(i, total int) (start, end int) {
	start = i * int(f.ChunkSize)
	end = start + int(f.ChunkSize)
	if end > total {
		end = total
	}
	return start, end
}

// sealedBounds returns chunk i's ciphertext‖tag byte range within the
// sealed blob for total plaintext bytes.
func (f *Filenode) sealedBounds(i, total int) (start, end int) {
	ps, pe := f.chunkBounds(i, total)
	start = ps + i*tagSize
	end = start + (pe - ps) + tagSize
	return start, end
}

// ensureAAD (re)builds the cached associated-data table. Each chunk's
// AAD binds its ciphertext to the data object and position
// (DataUUID‖little-endian index), so chunks cannot be transplanted or
// reordered. Because every chunk is an independent AEAD invocation with
// position-bound AAD and a unique IV, chunks can be sealed and opened
// in any order — including concurrently — without weakening those
// guarantees.
func (f *Filenode) ensureAAD(n int) {
	if f.aadUUID == f.DataUUID && len(f.aad) >= n*aadSize {
		return
	}
	if cap(f.aad) < n*aadSize {
		f.aad = make([]byte, n*aadSize)
	}
	f.aad = f.aad[:n*aadSize]
	for i := 0; i < n; i++ {
		off := i * aadSize
		copy(f.aad[off:], f.DataUUID[:])
		binary.LittleEndian.PutUint64(f.aad[off+uuid.Size:], uint64(i))
	}
	f.aadUUID = f.DataUUID
}

// aadFor slices chunk i's associated data out of the cached table.
func (f *Filenode) aadFor(i int) []byte {
	return f.aad[i*aadSize : (i+1)*aadSize]
}

// contentAEAD builds the AES-GCM instance for the current ContentKey.
// The returned AEAD is used concurrently by the chunk workers: the
// standard library's GCM Seal/Open only read the immutable key schedule
// and hash state, so concurrent calls into disjoint destination slices
// are safe (the equivalence and -race suites pin this assumption).
func (f *Filenode) contentAEAD() (cipher.AEAD, error) {
	block, err := aes.NewCipher(f.ContentKey[:])
	if err != nil {
		return nil, fmt.Errorf("metadata: content cipher: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("metadata: content GCM: %w", err)
	}
	return gcm, nil
}

// refreshContexts draws a fresh content key and one fresh IV per chunk
// straight into the filenode, so no scratch buffer ever holds key
// material.
func (f *Filenode) refreshContexts(n int) error {
	if cap(f.Chunks) >= n {
		f.Chunks = f.Chunks[:n]
	} else {
		f.Chunks = make([]ChunkContext, n)
	}
	if _, err := rand.Read(f.ContentKey[:]); err != nil {
		return fmt.Errorf("metadata: chunk key material: %w", err)
	}
	for i := range f.Chunks {
		if _, err := rand.Read(f.Chunks[i].IV[:]); err != nil {
			return fmt.Errorf("metadata: chunk key material: %w", err)
		}
	}
	return nil
}

// cryptoWorkers picks the fan-out width for size bytes of content. The
// auto setting (0) resolves to GOMAXPROCS but falls back to serial below
// serialCutoffBytes; an explicit knob is a width request, clamped like
// every knob to GOMAXPROCS (parallel.Workers), so oversubscribing a
// small machine never costs throughput.
func cryptoWorkers(size, workers int) int {
	if workers == 0 && size < serialCutoffBytes {
		return 1
	}
	return parallel.Workers(workers)
}

// EncryptContent encrypts plaintext into the data object's on-store
// form, drawing a fresh content key and fresh per-chunk IVs
// ("re-encrypted using fresh keys on every file content update",
// §VI-A). The returned blob holds ciphertext‖tag per chunk
// (SealedSize bytes); tags are also recorded in the filenode. Chunks
// are sealed in parallel across GOMAXPROCS workers; use
// EncryptContentWorkers to bound the fan-out.
func (f *Filenode) EncryptContent(plaintext []byte) ([]byte, error) {
	return f.EncryptContentWorkers(plaintext, 0)
}

// EncryptContentWorkers is EncryptContent with an explicit parallelism
// knob: 0 means GOMAXPROCS (with serial fallback below
// serialCutoffBytes), 1 forces the serial path, higher values request a
// wider fan-out (clamped to GOMAXPROCS).
func (f *Filenode) EncryptContentWorkers(plaintext []byte, workers int) ([]byte, error) {
	out := make([]byte, f.SealedSize(len(plaintext)))
	return f.EncryptContentInto(out, plaintext, workers)
}

// EncryptContentInto is EncryptContentWorkers sealing into a
// caller-owned buffer: dst must have capacity for SealedSize(len
// (plaintext)) bytes and is returned re-sliced to exactly that length.
// The caller owns dst throughout, and each worker seals its chunks
// directly into their final slots via capacity-capped sub-slices, so
// no ciphertext is ever staged in scratch.
func (f *Filenode) EncryptContentInto(dst, plaintext []byte, workers int) ([]byte, error) {
	total := len(plaintext)
	sealedLen := f.SealedSize(total)
	if cap(dst) < sealedLen {
		return nil, fmt.Errorf("metadata: destination capacity %d for %d sealed bytes", cap(dst), sealedLen)
	}
	dst = dst[:sealedLen]
	f.Size, f.Inline = uint64(total), nil
	n := f.NumChunks()
	if err := f.refreshContexts(n); err != nil {
		return nil, err
	}
	if n == 0 {
		return dst, nil
	}
	f.ensureAAD(n)
	gcm, err := f.contentAEAD()
	if err != nil {
		return nil, err
	}
	err = parallel.Ranges(n, cryptoWorkers(total, workers), func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			ps, pe := f.chunkBounds(i, total)
			ss, se := f.sealedBounds(i, total)
			// Seal appends ciphertext then tag into this chunk's slot; the
			// three-index slice caps capacity at the slot boundary so an
			// overrun could never reach a neighbouring chunk.
			sealed := gcm.Seal(dst[ss:ss:se], f.Chunks[i].IV[:], plaintext[ps:pe], f.aadFor(i))
			copy(f.Chunks[i].Tag[:], sealed[pe-ps:])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return dst, nil
}

// DecryptContent verifies and decrypts a data object blob produced by
// EncryptContent. Chunk reordering, truncation, or modification yields
// ErrTampered. Chunks are opened in parallel across GOMAXPROCS workers;
// use DecryptContentWorkers to bound the fan-out.
func (f *Filenode) DecryptContent(blob []byte) ([]byte, error) {
	return f.DecryptContentWorkers(blob, 0)
}

// DecryptContentWorkers is DecryptContent with an explicit parallelism
// knob (same semantics as EncryptContentWorkers).
func (f *Filenode) DecryptContentWorkers(blob []byte, workers int) ([]byte, error) {
	out := make([]byte, f.Size)
	return f.DecryptContentInto(out, blob, workers)
}

// DecryptContentInto is DecryptContentWorkers opening into a
// caller-owned buffer of capacity >= f.Size, returned re-sliced to the
// plaintext length. Each sealed chunk is read directly out of blob and
// opened directly into its plaintext slot — zero staging copies on
// either side.
func (f *Filenode) DecryptContentInto(dst, blob []byte, workers int) ([]byte, error) {
	total := int(f.Size)
	if uint64(len(blob)) != uint64(f.SealedSize(total)) {
		return nil, fmt.Errorf("%w: data object is %d bytes, filenode records %d sealed",
			ErrTampered, len(blob), f.SealedSize(total))
	}
	n := f.NumChunks()
	if len(f.Chunks) != n {
		return nil, fmt.Errorf("%w: %d chunk contexts for %d chunks", ErrMalformed, len(f.Chunks), n)
	}
	if cap(dst) < total {
		return nil, fmt.Errorf("metadata: destination capacity %d for %d plaintext bytes", cap(dst), total)
	}
	dst = dst[:total]
	if n == 0 {
		return dst, nil
	}
	f.ensureAAD(n)
	gcm, err := f.contentAEAD()
	if err != nil {
		return nil, err
	}
	err = parallel.Ranges(n, cryptoWorkers(total, workers), func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			ps, pe := f.chunkBounds(i, total)
			ss, se := f.sealedBounds(i, total)
			ctx := &f.Chunks[i]
			// The blob's inline tag must be the one the filenode recorded:
			// a mismatch means data object and metadata are from different
			// content versions, which GCM would also reject, but saying so
			// before the AEAD pass keeps the failure cheap and precise.
			if !bytes.Equal(blob[se-tagSize:se], ctx.Tag[:]) {
				return fmt.Errorf("%w: chunk %d tag mismatch", ErrTampered, i)
			}
			if _, err := gcm.Open(dst[ps:ps:pe], ctx.IV[:], blob[ss:se], f.aadFor(i)); err != nil {
				return fmt.Errorf("%w: chunk %d authentication failed", ErrTampered, i)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return dst, nil
}

// SealStream is a pipelined encryption in flight: workers seal chunks
// into the caller's buffer while the consumer drains the completed
// prefix with Next. Produced by EncryptContentStream.
type SealStream struct {
	sealed []byte

	mu        sync.Mutex
	cond      sync.Cond
	done      []bool
	wmChunk   int // chunks complete from the start
	wmBytes   int // sealed bytes complete from the start
	emitted   int // sealed bytes already handed out by Next
	finished  bool
	err       error
	cryptoDur time.Duration

	f     *Filenode
	total int
	start time.Time
}

// EncryptContentStream begins sealing plaintext into dst (capacity >=
// SealedSize, caller-owned exactly as in EncryptContentInto) and
// returns immediately. Workers fan out across the chunks; the consumer
// pulls completed in-order spans with Next and overlaps them with
// upload, so crypto hides behind the network instead of serializing in
// front of it. The filenode's Size/ContentKey/IVs are refreshed before
// this returns, but Chunks[i].Tag values land asynchronously: do not
// read the filenode (or dst outside segments Next returned) until Wait
// reports completion. The in-flight window is bounded by dst itself —
// workers never block on the consumer, and everything sealed-but-unsent
// stays in the one buffer.
func (f *Filenode) EncryptContentStream(dst, plaintext []byte, workers int) (*SealStream, error) {
	total := len(plaintext)
	sealedLen := f.SealedSize(total)
	if cap(dst) < sealedLen {
		return nil, fmt.Errorf("metadata: destination capacity %d for %d sealed bytes", cap(dst), sealedLen)
	}
	dst = dst[:sealedLen]
	f.Size, f.Inline = uint64(total), nil
	n := f.NumChunks()
	if err := f.refreshContexts(n); err != nil {
		return nil, err
	}
	s := &SealStream{sealed: dst, f: f, total: total, start: time.Now()}
	s.cond.L = &s.mu
	if n == 0 {
		s.finished = true
		return s, nil
	}
	f.ensureAAD(n)
	gcm, err := f.contentAEAD()
	if err != nil {
		return nil, err
	}
	s.done = make([]bool, n)
	go func() {
		err := parallel.Ranges(n, cryptoWorkers(total, workers), func(lo, hi int) error {
			for i := lo; i < hi; i++ {
				ps, pe := f.chunkBounds(i, total)
				ss, se := f.sealedBounds(i, total)
				sealed := gcm.Seal(dst[ss:ss:se], f.Chunks[i].IV[:], plaintext[ps:pe], f.aadFor(i))
				copy(f.Chunks[i].Tag[:], sealed[pe-ps:])
				s.chunkDone(i)
			}
			return nil
		})
		s.mu.Lock()
		s.err = err
		s.finished = true
		s.cryptoDur = time.Since(s.start)
		s.cond.Broadcast()
		s.mu.Unlock()
	}()
	return s, nil
}

// chunkDone marks chunk i sealed and advances the contiguous watermark.
func (s *SealStream) chunkDone(i int) {
	s.mu.Lock()
	s.done[i] = true
	advanced := false
	for s.wmChunk < len(s.done) && s.done[s.wmChunk] {
		s.wmChunk++
		advanced = true
	}
	if advanced {
		if s.wmChunk == len(s.done) {
			s.wmBytes = len(s.sealed)
		} else {
			s.wmBytes, _ = s.f.sealedBounds(s.wmChunk, s.total)
		}
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// Next blocks until more contiguous sealed bytes are available and
// returns them as a slice of the caller's buffer. It returns (nil, nil)
// once the whole blob has been handed out, or the sealing error if one
// occurred. Coalescing is deliberate: Next hands back *everything*
// sealed since the last call in one segment, so a consumer that stalls
// on the network drains the backlog in a single write instead of
// per-chunk sends.
func (s *SealStream) Next() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.emitted == s.wmBytes && !s.finished {
		s.cond.Wait()
	}
	if s.err != nil {
		return nil, s.err
	}
	if s.emitted == len(s.sealed) {
		return nil, nil
	}
	seg := s.sealed[s.emitted:s.wmBytes]
	s.emitted = s.wmBytes
	return seg, nil
}

// Wait blocks until every chunk is sealed and returns the sealing
// error, if any. After Wait, the filenode's chunk table (including
// tags) is fully populated and the sealed buffer is complete.
func (s *SealStream) Wait() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.finished {
		s.cond.Wait()
	}
	return s.err
}

// Sealed returns the full sealed blob after Wait has reported
// completion; the slice aliases the caller's buffer.
func (s *SealStream) Sealed() []byte { return s.sealed }

// CryptoDuration reports how long the sealing itself took, independent
// of how fast the consumer drained it — the figure the enclave's
// chunk-crypto histogram records for streamed writes.
func (s *SealStream) CryptoDuration() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cryptoDur
}

// MetadataOverhead returns the encoded size of the filenode's content
// crypto contexts — the quantity the revocation experiment (§VII-E)
// compares against bulk data re-encryption.
func (f *Filenode) MetadataOverhead() int {
	return BodyKeySize + len(f.Chunks)*(ivSize+tagSize)
}
