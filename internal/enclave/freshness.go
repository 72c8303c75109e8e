package enclave

import (
	"fmt"

	"nexus/internal/merkle"
	"nexus/internal/metadata"
	"nexus/internal/serial"
	"nexus/internal/uuid"
)

// Freshness (DESIGN.md §15): rollback protection for metadata objects.
//
// Per-object version counters (§VI-C) detect rollback of objects this
// enclave has already seen, but a malicious server can still serve a
// consistent *old* snapshot to a client that has seen nothing newer. The
// paper sketches the fix — one authenticated record of every object's
// current version — and leaves it to future work because a flat table
// must be re-read and re-uploaded on every metadata update. Here the
// enclave instead holds a single commitment to that record: the root of
// a canonical Merkle tree (internal/merkle) plus a monotonic epoch
// counter. The untrusted side keeps the tree itself and serves O(log n)
// inclusion proofs:
//
//   - every metadata load verifies a membership (or absence) proof for
//     the object against the enclave-resident root before the object's
//     version is trusted;
//   - every metadata flush batch advances the root *inside* the
//     enclave, by folding each update's proof (merkle.Proof.NewRoot)
//     against the previous root — the enclave never needs the tree;
//   - the new root is sealed with the volume rootkey and uploaded as
//     its own store object, so a freshly mounted enclave of the same
//     volume recovers the commitment and the epoch ordering.
//
// The mechanism runs exactly when Config.Store serves proofs
// (FreshnessProofStore; nexus.NewClient always supplies one). Over a
// plain ObjectStore the enclave falls back to the paper's baseline: the
// per-object version memory alone.
//
// Trust boundary: proofs and the tree (a checkpoint object plus the
// delta trailing the sealed root) live untrusted and are only ever
// *verified* in here; the sealed root object is
// integrity-protected by the rootkey AEAD, and rollback of the root
// itself is caught by the in-enclave epoch (ErrStaleObject). A forked
// server can still replay a sealed root from a *different* client's
// history at a higher epoch — the classic fork-consistency bound the
// paper accepts (§VI-C); divergence is detected the moment the two
// histories meet (same epoch, different root).

// MerkleRootObjectName is the store name of the sealed merkle root.
const MerkleRootObjectName = "freshness-root"

// merkleRootID keys the sealed root object's preamble.
var merkleRootID = uuid.UUID{0xff, 0xfd}

// FreshnessProofStore is the ocall surface proof verification requires:
// an ObjectStore that also maintains the freshness tree and serves
// proofs against it (implemented by vfs.FreshnessStore).
//
// The contract between the two calls and the object space: a batch
// staged by FreshnessUpdate becomes durable with the next put of
// MerkleRootObjectName through the same store, and not before — the
// sealed root and the tree state it commits to are one write. Until that
// put succeeds the store keeps serving the epoch the batch was staged
// at, and a batch whose put never happens is simply staged again. The
// store learns the volume's epoch from the reads of MerkleRootObjectName
// that pass through it, which is why the enclave re-reads the root under
// its lock before every batch.
type FreshnessProofStore interface {
	ObjectStore
	// FreshnessProof returns the encoded membership/absence proof for
	// id against the tree at the given epoch (the enclave's current
	// root). Serving any other epoch's proof simply fails verification.
	FreshnessProof(id uuid.UUID, epoch uint64) ([]byte, error)
	// FreshnessUpdate stages the batch on the tree at the given epoch,
	// returning one encoded proof per update, each valid against the
	// tree state after the updates before it — exactly what the enclave
	// folds into its next root.
	FreshnessUpdate(epoch uint64, updates []merkle.LeafUpdate) ([][]byte, error)
}

// merkleRootFormat versions the sealed root body. Format 2 is the same
// body, written by enclaves that rewrite directories and the supernode
// under the root's lock alone (DESIGN.md §12.4): an enclave that still
// locks each directory knows only format 1 and fails closed on such a
// volume instead of losing entries beside a client that takes no
// directory lock. Format 1 roots are still read; the next commit
// rewrites them.
const merkleRootFormat = 2

func encodeMerkleRoot(root [merkle.HashSize]byte, epoch uint64) []byte {
	w := serial.NewWriter(1 + merkle.HashSize + 8)
	w.WriteUint8(merkleRootFormat)
	w.WriteRaw(root[:])
	w.WriteUint64(epoch)
	return w.Bytes()
}

func decodeMerkleRoot(body []byte) (root [merkle.HashSize]byte, epoch uint64, err error) {
	r := serial.NewReader(body)
	if f := r.ReadUint8("merkle root format"); r.Err() == nil && f != merkleRootFormat && f != 1 {
		return root, 0, fmt.Errorf("%w: unknown merkle root format %d", metadata.ErrMalformed, f)
	}
	r.ReadRawInto(root[:], "merkle root hash")
	epoch = r.ReadUint64("merkle root epoch")
	if ferr := r.Finish(); ferr != nil {
		return root, 0, fmt.Errorf("decoding merkle root: %w", ferr)
	}
	return root, epoch, nil
}

// loadMerkleRootLocked establishes the enclave's root commitment. With
// force false a commitment already in enclave memory is kept; force
// true re-reads the store (under the root object's lock, or when a
// proof failed and another client may have advanced the epoch). The
// epoch ordering is enforced here: once this enclave has seen epoch N,
// any sealed root below N — or a *different* root at exactly N, the
// fork signature — is a rollback and fails closed.
func (e *Enclave) loadMerkleRootLocked(force bool) error {
	if e.mkSeen && !e.mkResumed && !force {
		return nil
	}
	blob, _, err := e.fetchObject(e.metrics.metaIO, MerkleRootObjectName)
	if err != nil {
		if isNotExist(err) {
			if e.mkSeen && e.mkEpoch > 0 {
				return fmt.Errorf("%w: merkle root object vanished after epoch %d", ErrStaleObject, e.mkEpoch)
			}
			e.mkRoot, e.mkEpoch, e.mkSeen, e.mkResumed = merkle.EmptyRoot(), 0, true, false
			return nil
		}
		return fmt.Errorf("fetching merkle root: %w", err)
	}
	p, body, err := metadata.Open(e.rootKey, blob)
	if err != nil {
		return fmt.Errorf("verifying merkle root: %w", err)
	}
	if p.Type != metadata.TypeFreshness || p.UUID != merkleRootID {
		return fmt.Errorf("%w: object %q is not the merkle root", metadata.ErrTampered, MerkleRootObjectName)
	}
	root, epoch, err := decodeMerkleRoot(body)
	if err != nil {
		return err
	}
	if epoch != p.Version {
		return fmt.Errorf("%w: merkle root epoch %d != sealed version %d", metadata.ErrTampered, epoch, p.Version)
	}
	if e.mkSeen {
		if epoch < e.mkEpoch {
			return fmt.Errorf("%w: merkle root epoch %d < seen %d", ErrStaleObject, epoch, e.mkEpoch)
		}
		if epoch == e.mkEpoch && root != e.mkRoot {
			return fmt.Errorf("%w: merkle root diverged at epoch %d (fork detected)", ErrStaleObject, epoch)
		}
	}
	e.mkRoot, e.mkEpoch, e.mkSeen, e.mkResumed = root, epoch, true, false
	return nil
}

// FreshnessEpoch returns the newest root commitment this enclave has
// accepted; ok is false before any has been loaded or committed. A
// process that is about to exit keeps it (outside the store) and hands
// it to its successor's ResumeFreshnessEpoch: the epoch ordering above
// then spans processes, not just one enclave's lifetime.
func (e *Enclave) FreshnessEpoch() (epoch uint64, root [merkle.HashSize]byte, ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.mkEpoch, e.mkRoot, e.mkSeen && !e.mkResumed
}

// ResumeFreshnessEpoch sets the commitment an earlier enclave of the same
// volume last accepted as this one's floor, before the volume is mounted:
// the first root read from the store must be at that epoch with that
// root, or later. The floor is only a floor — the store's root is still
// read and verified — and it never lowers one this enclave already has.
func (e *Enclave) ResumeFreshnessEpoch(epoch uint64, root [merkle.HashSize]byte) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.mkSeen {
		return
	}
	e.mkRoot, e.mkEpoch, e.mkSeen, e.mkResumed = root, epoch, true, true
}

// checkFreshnessLocked verifies a loaded object's version. Over a plain
// store that is the per-object memory: a version below one this enclave
// has already seen is a rollback. Over a proof store it is the root
// commitment: the store must produce a proof that either binds id to a
// leaf version ≤ the loaded version, or proves id absent (objects newer
// than the last committed batch; their own AEAD protects them). A first
// failure triggers one forced root reload — another client of the same
// volume may have advanced the epoch — then fails closed: ErrStaleObject
// for a proven-stale version, ErrBadProof for anything that does not
// verify.
func (e *Enclave) checkFreshnessLocked(id uuid.UUID, version uint64) error {
	if e.proofStore == nil {
		if last, ok := e.freshness[id]; ok && version < last {
			return fmt.Errorf("%w: object %s version %d < seen %d", ErrStaleMetadata, id, version, last)
		}
		return nil
	}
	for attempt := 0; ; attempt++ {
		if err := e.loadMerkleRootLocked(attempt > 0); err != nil {
			return err
		}
		var raw []byte
		epoch := e.mkEpoch
		err := e.timedOcall(e.metrics.metaIO, func() error {
			var err error
			raw, err = e.proofStore.FreshnessProof(id, epoch)
			return err
		})
		var verr error
		if err == nil {
			e.metrics.proofs.Inc()
			e.metrics.proofBytes.Add(int64(len(raw)))
			var p *merkle.Proof
			if p, verr = merkle.DecodeProof(raw); verr == nil {
				var leafV uint64
				var present bool
				if leafV, present, verr = p.Verify(e.mkRoot, id); verr == nil {
					if present && version < leafV {
						return fmt.Errorf("%w: object %s at version %d, merkle leaf requires %d",
							ErrStaleObject, id, version, leafV)
					}
					return nil
				}
			}
		}
		if attempt == 0 {
			continue
		}
		if err != nil {
			return fmt.Errorf("%w: no freshness proof for %s at epoch %d: %v", ErrBadProof, id, epoch, err)
		}
		return fmt.Errorf("%w: freshness proof for %s: %v", ErrBadProof, id, verr)
	}
}

// noteSeenLocked records the newest seen version of an object in the
// per-object memory. Over a proof store the root commitment subsumes the
// map, so it stays empty — the O(1) enclave residency the freshness
// sweep measures.
func (e *Enclave) noteSeenLocked(id uuid.UUID, version uint64) {
	if e.proofStore == nil {
		e.freshness[id] = version
	}
}

// recordFreshnessLocked records version updates (0 = object deleted).
// Inside a batch they collect in freshSink and the root advances once at
// the batch's commit; a stale-low leaf is safe in the interim —
// checkFreshnessLocked only rejects versions *below* it. A flush outside
// a batch (a filenode under its own lock, the objects of a new volume)
// is its own commit.
func (e *Enclave) recordFreshnessLocked(updates map[uuid.UUID]uint64) error {
	if e.freshSink != nil {
		for id, v := range updates {
			e.freshSink[id] = v
		}
		return nil
	}
	if e.proofStore == nil {
		return nil
	}
	return e.commitLocked(func() error { return e.recordFreshnessLocked(updates) })
}

// advanceRootLocked commits a batch of version updates to the tree and
// advances the enclave root, inside a commit (the root lock is held and
// the root re-read). The batch is ordered deterministically, the
// untrusted store applies it and returns one proof per update, and the
// enclave folds each verified proof into the next root
// (merkle.Proof.NewRoot) — O(batch · log n) work against O(1) enclave
// state. The new root seals at epoch+1.
func (e *Enclave) advanceRootLocked(updates map[uuid.UUID]uint64) error {
	if e.proofStore == nil || len(updates) == 0 {
		return nil
	}
	ids := make([]uuid.UUID, 0, len(updates))
	for id := range updates {
		ids = append(ids, id)
	}
	sortUUIDs(ids)
	batch := make([]merkle.LeafUpdate, 0, len(ids))
	for _, id := range ids {
		batch = append(batch, merkle.LeafUpdate{ID: id, Version: updates[id]})
	}

	var proofs [][]byte
	epoch := e.mkEpoch
	if err := e.timedOcall(e.metrics.metaIO, func() error {
		var err error
		proofs, err = e.proofStore.FreshnessUpdate(epoch, batch)
		return err
	}); err != nil {
		return fmt.Errorf("merkle freshness update: %w", err)
	}
	if len(proofs) != len(batch) {
		return fmt.Errorf("%w: %d proofs for %d updates", ErrBadProof, len(proofs), len(batch))
	}
	root := e.mkRoot
	for i, raw := range proofs {
		e.metrics.proofBytes.Add(int64(len(raw)))
		p, err := merkle.DecodeProof(raw)
		if err != nil {
			return fmt.Errorf("%w: update proof %d: %v", ErrBadProof, i, err)
		}
		if root, err = p.NewRoot(root, batch[i].ID, batch[i].Version); err != nil {
			return fmt.Errorf("%w: update proof %d for %s: %v", ErrBadProof, i, batch[i].ID, err)
		}
	}

	next := epoch + 1
	blob, err := metadata.Seal(e.rootKey, metadata.Preamble{
		Type:    metadata.TypeFreshness,
		UUID:    merkleRootID,
		Version: next,
	}, encodeMerkleRoot(root, next))
	if err != nil {
		return fmt.Errorf("sealing merkle root: %w", err)
	}
	if _, err := e.putObject(e.metrics.metaIO, MerkleRootObjectName, blob); err != nil {
		// Neither the commitment nor the tree advanced — they are this
		// one put — unless only the reply was lost; the re-read at the
		// top of the retried batch tells, and either way the batch
		// converges on the same root.
		return fmt.Errorf("uploading merkle root: %w", err)
	}
	e.mkRoot, e.mkEpoch, e.mkSeen = root, next, true
	e.metrics.rootUpdates.Inc()
	e.metrics.metadataFlushes.Inc()
	e.metrics.metadataBytes.Add(int64(len(blob)))
	return nil
}
