package vfs

import (
	"errors"
	"fmt"
	"sync"

	"nexus/internal/backend"
	"nexus/internal/enclave"
	"nexus/internal/merkle"
	"nexus/internal/obs"
	"nexus/internal/serial"
	"nexus/internal/uuid"
)

// FreshnessTreeObjectName is the store object holding the untrusted
// freshness-tree checkpoint.
const FreshnessTreeObjectName = "freshness-tree"

// ErrEpochUnavailable reports a proof request for an epoch this store
// cannot reach: the root object on the store commits to another one, or
// no checkpoint the root's trailer can be applied to exists. The enclave
// maps it to a fail-closed proof rejection.
var ErrEpochUnavailable = errors.New("vfs: freshness tree epoch unavailable")

// FreshnessStore upgrades any enclave.ObjectStore to the
// FreshnessProofStore surface merkle freshness mode needs: it maintains
// the full uuid→version Merkle tree on the untrusted side and serves
// membership/absence proofs against it, while the enclave holds only
// the root commitment (DESIGN.md §15).
//
// The tree persists as checkpoint + delta (§15.3). The checkpoint object
// is the whole tree at some epoch, written rarely. Every put of the
// enclave's sealed root carries an unsealed trailer listing each leaf
// changed since the checkpoint, so the commitment and the tree state it
// commits to reach the store in one atomic write, and a reader brings its
// tree to the root's epoch from the root object alone. A drain therefore
// uploads what changed, not the namespace.
//
// Neither object holds anything secret — only version counters — and the
// integrity of neither matters: every proof drawn from them is verified
// inside the enclave against the sealed root, so tampering here can only
// cause fail-closed rejections, never acceptance of stale data.
type FreshnessStore struct {
	inner enclave.ObjectStore

	mu sync.Mutex
	// cur is the tree at epoch at.tip, and at the trailer of the root
	// frame that put it there; cur is nil until the first root is read.
	cur *merkle.Tree
	at  rootTrailer
	// next is the batch FreshnessUpdate staged, nil when there is none:
	// the tree and trailer that become cur and at when the sealed root
	// committing to them is put.
	next   *merkle.Tree
	nextAt rootTrailer
}

var _ enclave.FreshnessProofStore = (*FreshnessStore)(nil)

// NewFreshnessStore wraps inner. When inner supports streaming puts the
// returned store forwards them (the enclave type-asserts for
// StreamObjectStore on large writes).
func NewFreshnessStore(inner enclave.ObjectStore) enclave.FreshnessProofStore {
	fs := &FreshnessStore{inner: inner}
	if ss, ok := inner.(enclave.StreamObjectStore); ok {
		return &streamFreshnessStore{FreshnessStore: fs, stream: ss}
	}
	return fs
}

// streamFreshnessStore adds the StreamObjectStore upgrade when the
// wrapped store has it.
type streamFreshnessStore struct {
	*FreshnessStore
	stream enclave.StreamObjectStore
}

func (s *streamFreshnessStore) PutVersionedStream(name string, total int, next func() ([]byte, error)) (uint64, error) {
	return s.stream.PutVersionedStream(name, total, next)
}

// GetVersioned forwards to the wrapped store. A read of the sealed root
// is also how this store learns the volume's epoch: the trailer is
// stripped before the enclave sees the blob and the resident tree follows
// it, at no extra round trip. A frame that does not parse is handed up
// whole, so the enclave's own authentication rejects it.
func (s *FreshnessStore) GetVersioned(name string) ([]byte, uint64, error) {
	data, version, err := s.inner.GetVersioned(name)
	if name != enclave.MerkleRootObjectName {
		return data, version, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// A tree that cannot follow this root is not this read's failure: the
	// enclave gets the root it asked for, and the proof request that needs
	// the tree re-reads it and reports why.
	sealed, _ := s.followLocked(data, err)
	return sealed, version, err
}

// PutVersioned forwards to the wrapped store. The put of the sealed root
// is what makes the batch staged by FreshnessUpdate durable: the blob is
// framed with the staged trailer, and the staged tree becomes the
// resident one only once the store has the frame. A put that fails — or
// whose reply is lost — leaves the resident tree where it was; the next
// read of the root shows which of the two happened.
func (s *FreshnessStore) PutVersioned(name string, data []byte) (uint64, error) {
	if name != enclave.MerkleRootObjectName {
		return s.inner.PutVersioned(name, data)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.next == nil {
		return 0, errors.New("vfs: sealed merkle root put without a staged freshness batch")
	}
	next, at := s.next, s.nextAt
	s.next = nil
	version, err := s.inner.PutVersioned(name, appendRootTrailer(data, at))
	if err != nil {
		return 0, err
	}
	s.cur, s.at = next, at
	return version, nil
}

// Delete and Lock forward to the wrapped store untouched.
func (s *FreshnessStore) Delete(name string) error { return s.inner.Delete(name) }

func (s *FreshnessStore) Lock(name string) (func(), error) { return s.inner.Lock(name) }

// Instrument forwards the registry to the wrapped store (the enclave
// calls it for any store exposing the method).
func (s *FreshnessStore) Instrument(reg *obs.Registry) {
	if in, ok := s.inner.(interface{ Instrument(*obs.Registry) }); ok {
		in.Instrument(reg)
	}
}

// rootTrailer is the unsealed tail of the root object: which checkpoint
// the tree at the sealed root's epoch derives from, and how.
type rootTrailer struct {
	// base is the epoch of the checkpoint delta applies to, tip the epoch
	// the sealed root commits to.
	base, tip uint64
	// spent counts the delta entries uploaded by every frame since base,
	// this one included: what not checkpointing has cost so far.
	spent uint64
	// delta holds each leaf changed in (base, tip] once, at its version
	// as of tip (0 = deleted).
	delta []merkle.LeafUpdate
}

const (
	// rootFrameMagic ends a framed root object ("NXF1"); a sealed root
	// ends in an AEAD tag, so a bare one is told apart by its last bytes.
	rootFrameMagic    = 0x4e584631
	rootTrailerFormat = 1
	rootFooterSize    = 4 + 4 // trailer length, magic
	deltaEntrySize    = uuid.Size + 8
	rootTrailerFixed  = 1 + 3*8 + 4 // format, base, tip, spent, entry count
)

// appendRootTrailer frames a sealed root: sealed ‖ trailer ‖ len ‖ magic.
func appendRootTrailer(sealed []byte, t rootTrailer) []byte {
	n := rootTrailerFixed + len(t.delta)*deltaEntrySize
	w := serial.NewWriter(len(sealed) + n + rootFooterSize)
	w.WriteRaw(sealed)
	w.WriteUint8(rootTrailerFormat)
	w.WriteUint64(t.base)
	w.WriteUint64(t.tip)
	w.WriteUint64(t.spent)
	w.WriteUint32(uint32(len(t.delta)))
	for _, u := range t.delta {
		w.WriteRaw(u.ID[:])
		w.WriteUint64(u.Version)
	}
	w.WriteUint32(uint32(n))
	w.WriteUint32(rootFrameMagic)
	return w.Bytes()
}

// splitRootFrame parses a root object read from the store. framed is
// false for anything that is not a well-formed frame — a bare sealed
// root, as builds before the trailer wrote it, or garbage — and sealed is
// then data itself.
func splitRootFrame(data []byte) (sealed []byte, t rootTrailer, framed bool) {
	if len(data) < rootFooterSize {
		return data, rootTrailer{}, false
	}
	foot := serial.NewReader(data[len(data)-rootFooterSize:])
	n := int(foot.ReadUint32("root trailer length"))
	if magic := foot.ReadUint32("root frame magic"); magic != rootFrameMagic || n < rootTrailerFixed || n > len(data)-rootFooterSize {
		return data, rootTrailer{}, false
	}
	split := len(data) - rootFooterSize - n
	r := serial.NewReader(data[split : len(data)-rootFooterSize])
	format := r.ReadUint8("root trailer format")
	t.base = r.ReadUint64("root trailer base")
	t.tip = r.ReadUint64("root trailer tip")
	t.spent = r.ReadUint64("root trailer spent")
	count := r.ReadCount(merkle.MaxLeaves, "root trailer entries")
	if r.Err() != nil || format != rootTrailerFormat || t.base > t.tip || count*deltaEntrySize != r.Remaining() {
		return data, rootTrailer{}, false
	}
	t.delta = make([]merkle.LeafUpdate, count)
	for i := range t.delta {
		r.ReadRawInto(t.delta[i].ID[:], "root trailer leaf id")
		t.delta[i].Version = r.ReadUint64("root trailer leaf version")
	}
	return data[:split], t, true
}

// mergeDelta overlays a batch on the delta before it: one entry per
// leaf, carrying its latest version, leaves the batch touches last.
func mergeDelta(prior, batch []merkle.LeafUpdate) []merkle.LeafUpdate {
	latest := make(map[uuid.UUID]uint64, len(batch))
	for _, u := range batch {
		latest[u.ID] = u.Version
	}
	out := make([]merkle.LeafUpdate, 0, len(prior)+len(latest))
	for _, u := range prior {
		if _, again := latest[u.ID]; !again {
			out = append(out, u)
		}
	}
	for _, u := range batch {
		if v, first := latest[u.ID]; first {
			out = append(out, merkle.LeafUpdate{ID: u.ID, Version: v})
			delete(latest, u.ID)
		}
	}
	return out
}

// checkpointFormat versions the checkpoint object. Format 1 is the
// per-epoch snapshot earlier builds wrote: the same fields with a
// one-batch log between epoch and tree, which a checkpoint has no use
// for.
const checkpointFormat = 2

func encodeCheckpoint(tree *merkle.Tree, epoch uint64) []byte {
	enc := tree.Encode()
	w := serial.NewWriter(1 + 8 + 4 + len(enc))
	w.WriteUint8(checkpointFormat)
	w.WriteUint64(epoch)
	w.WriteBytes(enc)
	return w.Bytes()
}

// checkpointSize is what encodeCheckpoint would produce for a tree of
// that many leaves, to within two bytes (merkle.Tree.Encode: 25 per leaf
// and 2 per inner node).
func checkpointSize(leaves int) uint64 { return 18 + 27*uint64(leaves) }

func decodeCheckpoint(data []byte) (*merkle.Tree, uint64, error) {
	r := serial.NewReader(data)
	format := r.ReadUint8("freshness checkpoint format")
	epoch := r.ReadUint64("freshness checkpoint epoch")
	switch {
	case r.Err() != nil || format == checkpointFormat:
	case format == 1:
		// Skip the log; the tree after it is the snapshot's own epoch's.
		r.ReadRaw(r.ReadCount(merkle.MaxLeaves, "freshness snapshot log entries")*deltaEntrySize, "freshness snapshot log")
	default:
		return nil, 0, fmt.Errorf("vfs: unknown freshness checkpoint format %d", format)
	}
	enc := r.ReadBytes(0, "freshness checkpoint tree")
	if err := r.Finish(); err != nil {
		return nil, 0, fmt.Errorf("decoding freshness checkpoint: %w", err)
	}
	tree, err := merkle.DecodeTree(enc)
	return tree, epoch, err
}

// readCheckpoint fetches the checkpoint. A volume that has not written
// one yet counts its deltas from the empty tree at epoch 0.
func (s *FreshnessStore) readCheckpoint() (*merkle.Tree, uint64, error) {
	data, _, err := s.inner.GetVersioned(FreshnessTreeObjectName)
	if errors.Is(err, backend.ErrNotExist) {
		return merkle.New(), 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	return decodeCheckpoint(data)
}

// checkpointWithin returns the checkpoint tree for a frame with the
// given base and tip. Any epoch in [base, tip] will do: the delta names
// every leaf changed since base at its version as of tip, so applying it
// to a later checkpoint only rewrites some leaves with the value they
// already have (a writer that crashed between a checkpoint and the frame
// adopting it leaves exactly that). A checkpoint older than base is
// re-read once under its store lock — a caching store (the AFS client)
// can serve a copy fetched before the writer replaced it, and taking the
// object's lock revalidates it. Root → checkpoint is the only order the
// two locks are ever taken in.
func (s *FreshnessStore) checkpointWithin(base, tip uint64) (*merkle.Tree, error) {
	tree, epoch, err := s.readCheckpoint()
	if err == nil && epoch < base {
		var unlock func()
		if unlock, err = s.inner.Lock(FreshnessTreeObjectName); err != nil {
			return nil, err
		}
		tree, epoch, err = s.readCheckpoint()
		unlock()
	}
	if err != nil {
		return nil, err
	}
	if epoch < base || epoch > tip {
		return nil, fmt.Errorf("%w: checkpoint at epoch %d, root covers %d to %d", ErrEpochUnavailable, epoch, base, tip)
	}
	return tree, nil
}

// followLocked brings the resident tree to the epoch a read of the root
// object (data, err) describes, and returns the sealed root within data.
// It never moves backwards: a root no newer than the resident tree — a
// stale cached copy, or a rolled-back store, which the enclave's epoch
// check rejects — changes nothing.
func (s *FreshnessStore) followLocked(data []byte, err error) (sealed []byte, _ error) {
	if errors.Is(err, backend.ErrNotExist) {
		// A fresh volume: the empty tree at epoch 0.
		if s.cur == nil {
			s.cur, s.at = merkle.New(), rootTrailer{}
		}
		return data, nil
	}
	if err != nil {
		return data, err
	}
	sealed, t, framed := splitRootFrame(data)
	if !framed {
		// A bare root says nothing about the tree, so the checkpoint alone
		// has to be it (a volume last written before the trailer existed).
		if s.cur != nil {
			return sealed, nil
		}
		tree, epoch, err := s.readCheckpoint()
		if err != nil {
			return sealed, err
		}
		s.cur, s.at = tree, rootTrailer{base: epoch, tip: epoch}
		return sealed, nil
	}
	if s.cur != nil && t.tip <= s.at.tip {
		return sealed, nil
	}
	from := s.cur
	if from == nil || s.at.tip < t.base {
		if from, err = s.checkpointWithin(t.base, t.tip); err != nil {
			return sealed, err
		}
	}
	tree := from.Clone()
	for _, u := range t.delta {
		tree.Set(u.ID, u.Version)
	}
	s.cur, s.at, s.next = tree, t, nil
	return sealed, nil
}

// syncLocked makes the resident tree the one at epoch. After the enclave
// has read the root through this store that is already so; otherwise the
// root is read here (a fresh wrapper under a live enclave, or a root read
// the tree could not follow at the time).
func (s *FreshnessStore) syncLocked(epoch uint64) error {
	if s.cur == nil || s.at.tip != epoch {
		data, _, err := s.inner.GetVersioned(enclave.MerkleRootObjectName)
		if _, err := s.followLocked(data, err); err != nil {
			return err
		}
	}
	if s.at.tip != epoch {
		return fmt.Errorf("%w: want epoch %d, tree at %d", ErrEpochUnavailable, epoch, s.at.tip)
	}
	return nil
}

// FreshnessProof implements enclave.FreshnessProofStore.
func (s *FreshnessStore) FreshnessProof(id uuid.UUID, epoch uint64) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.syncLocked(epoch); err != nil {
		return nil, err
	}
	return s.cur.Prove(id).Encode(), nil
}

// FreshnessUpdate implements enclave.FreshnessProofStore: it applies
// the batch to a copy of the tree at the given epoch and returns one
// proof per update, each against the tree state just before that update
// — the sequence the enclave folds into its next root. Nothing is
// committed here: the result is staged, and becomes durable and resident
// with the put of the sealed root (PutVersioned). A batch whose root
// never arrives is simply staged again, from the same resident tree.
//
// The one thing written here is the occasional checkpoint, and it is
// written before the frame that names it as base. The rule is ski
// rental: every frame re-uploads the whole delta since the checkpoint,
// and once those uploads have cost as much as a checkpoint would, buy
// one — the current tree, at the current epoch — so the delta starts
// over with this batch. Spending S bytes on a checkpoint every time S
// bytes of delta have been spent keeps the total within 2× of the best
// fixed period and, at u changed leaves per epoch, costs √(2·S·u) per
// epoch (DESIGN.md §15.3). It is a function of leaf and entry counts
// alone.
func (s *FreshnessStore) FreshnessUpdate(epoch uint64, updates []merkle.LeafUpdate) ([][]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.next = nil
	if err := s.syncLocked(epoch); err != nil {
		return nil, err
	}

	next := s.cur.Clone()
	proofs := make([][]byte, 0, len(updates))
	for _, u := range updates {
		proofs = append(proofs, next.Prove(u.ID).Encode())
		next.Set(u.ID, u.Version)
	}

	at := rootTrailer{base: s.at.base, tip: epoch + 1, spent: s.at.spent}
	prior := s.at.delta
	if s.at.spent*deltaEntrySize >= checkpointSize(s.cur.Len()) {
		if _, err := s.inner.PutVersioned(FreshnessTreeObjectName, encodeCheckpoint(s.cur, epoch)); err != nil {
			return nil, err
		}
		at.base, at.spent, prior = epoch, 0, nil
	}
	at.delta = mergeDelta(prior, updates)
	at.spent += uint64(len(at.delta))
	s.next, s.nextAt = next, at
	return proofs, nil
}
