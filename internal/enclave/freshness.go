package enclave

import (
	"bytes"
	"fmt"
	"maps"
	"slices"

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
// It is the enclave's one freshness path: New wraps any Config.Store that
// does not serve proofs in the proof service (internal/freshtree), so no
// enclave runs without it, and the paper's per-object version memory is
// not kept.
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

// merkleRootID keys the sealed root object's preamble.
var merkleRootID = uuid.UUID{0xff, 0xfd}

// merkleRootFormat versions the sealed root body. Format 2 is format 1's
// body, written by enclaves that rewrite directories and the supernode
// under the root's lock alone (DESIGN.md §12.4): an enclave that still
// locks each directory knows only format 1 and fails closed on such a
// volume instead of losing entries beside a client that takes no
// directory lock. A format-1 root is a retired layout and fails closed
// here too, with metadata.ErrUnsupportedLayout.
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
	if f := r.ReadUint8("merkle root format"); r.Err() == nil && f != merkleRootFormat {
		if f == 1 {
			return root, 0, fmt.Errorf("%w: merkle root of format 1", metadata.ErrUnsupportedLayout)
		}
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
// fork signature — is a rollback and fails closed. A re-read of the very
// bytes this enclave last put or opened (mkBlob) commits to the root it
// holds, so it skips the open and the checks; any other bytes take both.
// The calls ahead ride the root's exit.
func (e *Enclave) loadMerkleRootLocked(force bool, ahead ...*storeCall) error {
	if e.mkSeen && !e.mkResumed && !force {
		return nil
	}
	blob, _, err := e.fetchObject(MerkleRootObjectName, ahead...)
	if err != nil {
		if isNotExist(err) {
			if e.mkSeen && e.mkEpoch > 0 {
				return fmt.Errorf("%w: merkle root object vanished after epoch %d", ErrStaleObject, e.mkEpoch)
			}
			e.mkRoot, e.mkEpoch, e.mkSeen, e.mkResumed, e.mkBlob = merkle.EmptyRoot(), 0, true, false, nil
			return nil
		}
		return fmt.Errorf("fetching merkle root: %w", err)
	}
	if e.mkBlob != nil && bytes.Equal(blob, e.mkBlob) {
		return nil
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
	// A copy: the memo must not change with a buffer the store kept.
	e.mkRoot, e.mkEpoch, e.mkSeen, e.mkResumed, e.mkBlob = root, epoch, true, false, bytes.Clone(blob)
	return nil
}

// Revalidate re-reads the freshness root, so that the reads after it see
// every commit made before it, a peer's included. vfs.FS.Open calls it
// before reading the file: a store that answers unlocked reads from the
// snapshot of the last root it served moves to the newer root only when
// a read of the root shows it one (vfs.VersionedStore), and a handle
// written back at close must start from the latest committed content.
func (e *Enclave) Revalidate() error {
	return e.ecall(needAuth, func() error { return e.loadMerkleRootLocked(true) })
}

// FreshnessEpoch returns the newest root commitment this enclave has
// accepted; ok is false before any has been loaded or committed. A
// process that is about to exit keeps it (outside the store) and hands
// it to its successor's ResumeFreshnessEpoch: the epoch ordering above
// then spans processes, not just one enclave's lifetime. It covers a
// widening-only commit, an admission among them, once a barrier
// (SyncMetadata) has committed its leaf: the caller syncs first.
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
	e.mkRoot, e.mkEpoch, e.mkSeen, e.mkResumed, e.mkBlob = root, epoch, true, true, nil
}

// checkFreshnessLocked verifies a loaded object's version against the
// root commitment: the store must produce a proof that either binds id to
// a leaf version ≤ the loaded version, or proves id absent (objects newer
// than the last committed batch; their own AEAD protects them). A first
// failure triggers one forced root reload — another client of the same
// volume may have advanced the epoch — then fails closed: ErrStaleObject
// for a proven-stale version, ErrBadProof for anything that does not
// verify.
func (e *Enclave) checkFreshnessLocked(id uuid.UUID, version uint64) error {
	// A version below one this enclave put, whose leaf still waits for a
	// root commit (wb.fresh), is as stale as one below its leaf.
	if v := e.wb.fresh[id]; version < v {
		return fmt.Errorf("%w: object %s at version %d, this enclave put %d", ErrStaleObject, id, version, v)
	}
	for attempt := 0; ; attempt++ {
		if err := e.loadMerkleRootLocked(attempt > 0); err != nil {
			return err
		}
		epoch := e.mkEpoch
		want := storeCall{op: opProof, id: id, version: epoch}
		c, ok := e.takeStashedLocked(want)
		if !ok {
			// An error of a queued call the exit made first is that call's.
			c = &want
			if err := e.exitLocked(c); c.err == errNotMade {
				return err
			}
		}
		raw, err := c.blob, c.err
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
			return fmt.Errorf("%w: no freshness proof for %s at epoch %d: %w", ErrBadProof, id, epoch, err)
		}
		return fmt.Errorf("%w: freshness proof for %s: %v", ErrBadProof, id, verr)
	}
}

// reproveLocked keeps, of the freshness records that were waiting when a
// commit began (made under the root at epoch at), only those that still
// raise their leaf, once the commit has re-read the root: when the root
// moved since they were made, a peer may have committed a later version of
// the same object, and a leaf never moves backwards (DESIGN.md §15.2). A
// deleted object's record stays while its leaf is present. The proofs come
// from the proof service's resident tree, which the re-read brought to
// this epoch: one exit and no round trip. It reports whether it proved.
func (e *Enclave) reproveLocked(waiting map[uuid.UUID]uint64, at uint64) (bool, error) {
	if len(waiting) == 0 || at == e.mkEpoch {
		return false, nil
	}
	ids := make([]uuid.UUID, 0, len(waiting))
	for id := range waiting {
		ids = append(ids, id)
	}
	sortUUIDs(ids)
	calls := make([]*storeCall, len(ids))
	for i, id := range ids {
		calls[i] = &storeCall{op: opProof, id: id, version: e.mkEpoch}
	}
	if err := e.exitLocked(calls...); err != nil {
		return true, fmt.Errorf("%w: no freshness proof at epoch %d: %w", ErrBadProof, e.mkEpoch, err)
	}
	for i, id := range ids {
		e.metrics.proofs.Inc()
		e.metrics.proofBytes.Add(int64(len(calls[i].blob)))
		p, err := merkle.DecodeProof(calls[i].blob)
		if err != nil {
			return true, fmt.Errorf("%w: freshness proof for %s: %v", ErrBadProof, id, err)
		}
		leaf, present, err := p.Verify(e.mkRoot, id)
		if err != nil {
			return true, fmt.Errorf("%w: freshness proof for %s: %v", ErrBadProof, id, err)
		}
		v := waiting[id]
		if raises := present && (v == 0 || v > leaf) || !present && v > 0; !raises && e.wb.fresh[id] == v {
			delete(e.wb.fresh, id)
		}
	}
	e.wb.freshAt = e.mkEpoch
	return true, nil
}

// rootPutQueuedLocked reports whether a root put waits in the queue: a
// commit whose last exit has not been made yet.
func (e *Enclave) rootPutQueuedLocked() bool {
	return e.putQueuedLocked(MerkleRootObjectName)
}

// freshPendingLocked reports whether a freshness record waits for a root
// commit no queued root put makes: one in wb.fresh or on a queued call with
// no root put queued after it. A flush only queues, so a record waits for
// the commit that takes it — a stale-low leaf is safe in the interim, since
// checkFreshnessLocked only rejects versions below it — and a queued root
// put commits what was collected before it.
func (e *Enclave) freshPendingLocked() bool {
	pending := len(e.wb.fresh) > 0
	for _, c := range e.queued {
		switch {
		case c.op == opPut && c.name == MerkleRootObjectName:
			pending = false
		case len(c.fresh) > 0:
			pending = true
		}
	}
	return pending
}

// putQueuedLocked reports whether a put of the named object waits in the
// queue.
func (e *Enclave) putQueuedLocked(name string) bool {
	return slices.ContainsFunc(e.queued, func(c *storeCall) bool { return c.op == opPut && c.name == name })
}

// rootBatchLocked is the batch the next root advance commits: the
// collected version updates — wb.fresh and the queued calls' — in UUID
// order.
func (e *Enclave) rootBatchLocked() []merkle.LeafUpdate {
	updates := maps.Clone(e.wb.fresh)
	for _, c := range e.queued {
		if updates == nil {
			updates = make(map[uuid.UUID]uint64)
		}
		maps.Copy(updates, c.fresh)
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
	return batch
}

// advanceRootLocked commits the collected version updates to the tree and
// advances the enclave root, inside a commit (the root lock is held and
// the root re-read). The batch is ordered deterministically, the
// untrusted store applies it after the queued calls and returns one proof
// per update, and the enclave folds each verified proof into the next
// root (merkle.Proof.NewRoot) — O(batch · log n) work against O(1)
// enclave state. Non-nil proofs are those the store made for the update
// staged with the re-read (commitWithDrainLocked), and are used as they
// are: the staged call ran under the root's lock, after the re-read in the
// same exit, which made the proof service follow the store's root, so an
// honest store refused a stale epoch; and the fold rejects proofs that do
// not lead from the root the re-read found, so a lying store's fail
// closed. Otherwise the update is made here, in an exit with the queued
// calls. The new root seals at epoch+1; its put is queued, to leave with
// the unlocks.
func (e *Enclave) advanceRootLocked(proofs [][]byte) error {
	batch := e.rootBatchLocked()
	if len(batch) == 0 {
		return nil
	}
	epoch := e.mkEpoch
	if proofs == nil {
		if err := e.exitLocked(&storeCall{op: opRun, run: func() (err error) {
			proofs, err = e.store.FreshnessUpdate(epoch, batch)
			return err
		}}); err != nil {
			return fmt.Errorf("merkle freshness update: %w", err)
		}
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
	e.putObject(MerkleRootObjectName, blob, nil, func(c *storeCall) error {
		if err := c.err; err != nil {
			// Neither the commitment nor the tree advanced — they are this
			// one put — unless only the reply was lost; the re-read at the
			// top of the retried batch tells, and either way the batch
			// converges on the same root. The updates stay collected.
			return fmt.Errorf("uploading merkle root: %w", err)
		}
		e.mkRoot, e.mkEpoch, e.mkSeen, e.mkBlob = root, next, true, bytes.Clone(blob)
		e.wb.fresh = nil
		e.metrics.rootUpdates.Inc()
		e.metrics.metadataFlushes.Inc()
		e.metrics.metadataBytes.Add(int64(len(blob)))
		return nil
	})
	return nil
}
