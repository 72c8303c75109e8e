package enclave

// Write-back metadata flushing (DESIGN.md §12). Sealing and uploading
// a filenode and a dirnode inline on every mutating op is one metadata
// round-trip per create/write, exactly the overhead the paper amortizes
// by caching decrypted metadata in enclave memory (§V-B). Creates and
// removes instead mark their metadata dirty in an in-enclave dirty set,
// and the set is drained in dependency order (children before the
// dirnodes that name them, deferred deletes last) at explicit barriers:
// SyncMetadata (File.Sync/Close and FS.Sync in vfs), ACL/user/sharing
// changes, DropCaches, and the op-count/byte high-water marks.
// Config.WritebackMaxOps = 1 drains after every mutation (per-op
// durability).
//
// Ordering invariants the drain preserves:
//
//   - a dirnode is uploaded only after every new child object it
//     references exists on the store (new filenodes and deeper dirnodes
//     flush first), so readers never chase a dangling entry;
//   - within one dirnode, flushDirnodeLocked's copy-on-write protocol
//     still writes overflow buckets before the main object, so unlocked
//     readers see an entirely-old or entirely-new snapshot;
//   - deferred deletes run after all uploads, so no on-store dirnode
//     ever references a deleted object;
//   - the freshness root advances once per batch, absorbing every
//     per-object update through e.freshSink.
//
// Deferred dirnode mutations also keep a per-node op log (insert/remove
// by name). New objects are put without any lock; every directory the
// store already holds is rewritten inside one commit (commitLocked,
// DESIGN.md §12.4) under the freshness root's lock, the only lock a
// metadata commit takes: its on-store version is re-read there and — if
// another client advanced it meanwhile — the log is replayed onto the
// fresh copy (last-writer-wins per name) instead of clobbering it.

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"time"

	"nexus/internal/metadata"
	"nexus/internal/uuid"
)

// Defaults for the dirty-set high-water marks.
const (
	defaultWritebackMaxOps   = 64
	defaultWritebackMaxBytes = 4 << 20
)

// EPC charge estimates for dirty metadata held in enclave memory.
const (
	estFilenodeEPC = 512
	estDirnodeEPC  = 1024
	estDirOpBytes  = 256
)

type dirOpKind uint8

const (
	opInsert dirOpKind = iota
	opRemove
)

// dirOp is one deferred directory mutation, replayable onto a freshly
// loaded copy if the on-store directory advanced under us.
type dirOp struct {
	kind  dirOpKind
	entry metadata.DirEntry // opInsert
	name  string            // opRemove
}

// dirtyNode is one metadata object with pending changes. Exactly one of
// dir/file is set.
type dirtyNode struct {
	dir  *metadata.Dirnode
	file *metadata.Filenode
	// isNew marks an object the store has never seen (flushes at
	// version 1, no merge needed, cancellable without residue).
	isNew bool
	// base is the store version the dirty copy derives from (0 for new
	// objects); the drain flushes at base+1 when the store is unchanged.
	base uint64
	ops  []dirOp
	// charged is the EPC debt taken for holding this node pinned.
	charged int64
}

// pendingDelete is a store object whose removal is deferred to the end
// of the next drain (meta objects also clear their freshness entries).
type pendingDelete struct {
	id   uuid.UUID
	meta bool
}

// dirtySet tracks all pending metadata work. Guarded by Enclave.mu.
type dirtySet struct {
	maxOps int

	nodes   map[uuid.UUID]*dirtyNode
	deletes []pendingDelete
	delSeen map[uuid.UUID]bool

	// ops/bytes approximate the batched work since the last drain;
	// pressure is set when an EPC charge for a dirty node failed, which
	// forces a drain at the next opportunity.
	ops      int
	bytes    int64
	pressure bool

	// fresh holds the freshness updates of objects a batch has flushed
	// but whose root update has not landed yet: a batch that fails past
	// its first upload leaves them here, so the next commit still
	// includes them.
	fresh map[uuid.UUID]uint64
}

func newDirtySet(maxOps int) *dirtySet {
	if maxOps <= 0 {
		maxOps = defaultWritebackMaxOps
	}
	return &dirtySet{
		maxOps:  maxOps,
		nodes:   make(map[uuid.UUID]*dirtyNode),
		delSeen: make(map[uuid.UUID]bool),
	}
}

// dirtyDirnodeLocked returns the pending copy of a dirnode, which
// shadows both the decrypted cache and the store.
func (e *Enclave) dirtyDirnodeLocked(id uuid.UUID) (*metadata.Dirnode, uint64, bool) {
	n, ok := e.wb.nodes[id]
	if !ok || n.dir == nil {
		return nil, 0, false
	}
	return n.dir, n.base, true
}

// dirtyFilenodeLocked returns the pending copy of a filenode.
func (e *Enclave) dirtyFilenodeLocked(id uuid.UUID) (*metadata.Filenode, uint64, bool) {
	n, ok := e.wb.nodes[id]
	if !ok || n.file == nil {
		return nil, 0, false
	}
	return n.file, n.base, true
}

// chargeDirtyLocked takes the EPC debt for pinning a dirty node; on
// exhaustion the node stays unpinned (charged 0) and the set is flagged
// for an immediate drain.
func (e *Enclave) chargeDirtyLocked(n *dirtyNode, est int64) {
	if err := e.sgx.AllocEPC(est); err != nil {
		e.wb.pressure = true
		return
	}
	n.charged = est
}

// markNewFilenodeLocked registers a just-created filenode the store has
// never seen; it flushes at version 1 during the next drain.
func (e *Enclave) markNewFilenodeLocked(f *metadata.Filenode) {
	n := &dirtyNode{file: f, isNew: true}
	e.chargeDirtyLocked(n, estFilenodeEPC)
	e.wb.nodes[f.UUID] = n
	e.wb.ops++
	e.wb.bytes += estFilenodeEPC
	e.metrics.metadataDirty.Inc()
	e.metrics.dirtyGauge.Set(int64(len(e.wb.nodes)))
}

// setDirtyFilenodeLocked installs f as a pending create's new content.
// Inline bytes are pinned with the filenode until the drain, so the node's
// EPC charge and the batch's byte estimate grow by their length.
func (e *Enclave) setDirtyFilenodeLocked(n *dirtyNode, f *metadata.Filenode) {
	if n.charged > 0 {
		e.sgx.FreeEPC(n.charged)
		n.charged = 0
	}
	n.file = f
	e.chargeDirtyLocked(n, estFilenodeEPC+int64(len(f.Inline)))
	e.wb.bytes += int64(len(f.Inline))
}

// markNewDirnodeLocked registers a just-created dirnode.
func (e *Enclave) markNewDirnodeLocked(d *metadata.Dirnode) {
	n := &dirtyNode{dir: d, isNew: true}
	e.chargeDirtyLocked(n, estDirnodeEPC)
	e.wb.nodes[d.UUID] = n
	e.wb.ops++
	e.wb.bytes += estDirnodeEPC
	e.metrics.metadataDirty.Inc()
	e.metrics.dirtyGauge.Set(int64(len(e.wb.nodes)))
}

// markDirnodeOpLocked records a deferred mutation of an existing
// dirnode (d must be the copy loadDirnode returned, so repeat ops hit
// the same in-memory object). base is the store version the first mark
// derives from; later marks keep the original base.
func (e *Enclave) markDirnodeOpLocked(d *metadata.Dirnode, base uint64, op dirOp) {
	n, ok := e.wb.nodes[d.UUID]
	if !ok {
		n = &dirtyNode{dir: d, base: base}
		e.chargeDirtyLocked(n, estDirnodeEPC)
		e.wb.nodes[d.UUID] = n
		e.wb.bytes += estDirnodeEPC
		e.metrics.dirtyGauge.Set(int64(len(e.wb.nodes)))
	}
	if !n.isNew {
		// New dirnodes carry their full state in memory; no log needed.
		n.ops = append(n.ops, op)
	}
	e.wb.ops++
	e.wb.bytes += estDirOpBytes
	e.metrics.metadataDirty.Inc()
}

// stageDeleteLocked defers a store-object removal to the end of the
// next drain (after all uploads, so nothing on store dangles).
func (e *Enclave) stageDeleteLocked(id uuid.UUID, meta bool) {
	if e.wb.delSeen[id] {
		return
	}
	e.wb.delSeen[id] = true
	e.wb.deletes = append(e.wb.deletes, pendingDelete{id: id, meta: meta})
	e.wb.ops++
}

// dropDirtyNodeLocked forgets a dirty node (flushed or cancelled),
// returning its EPC debt.
func (e *Enclave) dropDirtyNodeLocked(id uuid.UUID) {
	n, ok := e.wb.nodes[id]
	if !ok {
		return
	}
	if n.charged > 0 {
		e.sgx.FreeEPC(n.charged)
	}
	delete(e.wb.nodes, id)
	e.metrics.dirtyGauge.Set(int64(len(e.wb.nodes)))
}

// maybeDrainLocked drains when a high-water mark (op count, estimated
// bytes, or EPC pressure) is hit. High-water drains are best-effort —
// like page-cache writeback, transient store faults are absorbed here
// and durability is reported at the explicit barriers, which are
// idempotent drains of whatever remains.
func (e *Enclave) maybeDrainLocked() error {
	if e.wb.ops < e.wb.maxOps && e.wb.bytes < defaultWritebackMaxBytes && !e.wb.pressure {
		return nil
	}
	//lint:ignore unchecked-crypto-error high-water drains are best-effort (page-cache semantics); barriers report durability
	_ = e.drainLocked()
	return nil
}

// drainWithRetryLocked is the barrier-grade drain: ErrStoreUnavailable
// is retried with a short deterministic backoff (the drain is
// idempotent — already-flushed nodes have left the set), anything else
// surfaces immediately.
func (e *Enclave) drainWithRetryLocked() error {
	var err error
	for attempt := 0; attempt < 4; attempt++ {
		if err = e.drainLocked(); err == nil || !errors.Is(err, ErrStoreUnavailable) {
			return err
		}
		time.Sleep(time.Duration(1<<(2*attempt)) * time.Millisecond)
	}
	return err
}

// sinkLocked runs fn with the freshness updates of every object it
// flushes collected in wb.fresh, where the next commit finds them.
func (e *Enclave) sinkLocked(fn func() error) error {
	if e.wb.fresh == nil {
		e.wb.fresh = make(map[uuid.UUID]uint64)
	}
	e.freshSink = e.wb.fresh
	defer func() { e.freshSink = nil }()
	return fn()
}

// commitLocked is one metadata commit (DESIGN.md §12.4), the critical
// section every rewrite of a dirnode the store holds, or of the
// supernode, runs in. It takes the freshness root's store lock — the one
// lock a commit takes, whose reply revalidates the root — and re-reads
// the root; fn then re-reads and re-bases what it rewrites and puts it;
// last, the root advances once for every object flushed since the last
// commit (wb.fresh), before the single unlock. When fn or the root update
// fails, the collected updates stay in wb.fresh and the next commit
// includes them. Commits do not nest. A filenode lock the operation needs
// is taken before the root lock, never under it (commitFilesLocked).
func (e *Enclave) commitLocked(fn func() error) error {
	release, err := e.lockObject(MerkleRootObjectName)
	if err != nil {
		return fmt.Errorf("locking merkle root: %w", err)
	}
	defer release()
	if e.proofStore != nil {
		// Another client may have advanced the epoch since the commitment
		// was last loaded.
		if err := e.loadMerkleRootLocked(true); err != nil {
			return err
		}
	}
	if err := e.sinkLocked(fn); err != nil {
		return err
	}
	if err := e.advanceRootLocked(e.wb.fresh); err != nil {
		return err
	}
	e.wb.fresh = nil
	return nil
}

// drainLocked flushes the whole dirty set in dependency order: the new
// objects first, without a lock, then one commit for the directories the
// store already holds and the deferred deletes. On failure the
// un-flushed portion of the set is left intact for retry.
func (e *Enclave) drainLocked() error {
	if len(e.wb.nodes) == 0 && len(e.wb.deletes) == 0 && len(e.wb.fresh) == 0 {
		return nil
	}
	span := e.metrics.tracer.Begin("enclave.flush_batch")
	span.SetTagInt("objects", int64(len(e.wb.nodes)))
	span.SetTagInt("ops", int64(e.wb.ops))
	span.SetTagInt("deletes", int64(len(e.wb.deletes)))
	defer span.End()

	if err := e.sinkLocked(func() error { return e.flushDirtyNodesLocked(true) }); err != nil {
		return err
	}
	return e.commitLocked(func() error {
		if err := e.flushDirtyNodesLocked(false); err != nil {
			return err
		}
		// Deferred deletes, FIFO, last — nothing on the store references
		// these objects any more.
		for len(e.wb.deletes) > 0 {
			del := e.wb.deletes[0]
			if err := e.deleteObject(objName(del.id)); err != nil && !isNotExist(err) {
				return err
			}
			if del.meta {
				delete(e.freshness, del.id)
				e.freshSink[del.id] = 0
			}
			e.wb.deletes = e.wb.deletes[1:]
			delete(e.wb.delSeen, del.id)
		}
		e.wb.ops, e.wb.bytes, e.wb.pressure = 0, 0, false
		e.metrics.flushBatches.Inc()
		e.metrics.dirtyGauge.Set(0)
		return nil
	})
}

// flushDirtyNodesLocked uploads the dirty nodes that are new (isNew) or
// the ones the store already holds, children first: filenodes — all new
// — so no dirnode upload references a file object missing from the
// store, then dirnodes deepest-first (depth = number of dirty ancestors
// via the Parent chain), so a parent referencing a new child directory
// uploads after the child exists. A directory the store holds is re-based
// on its on-store copy first; the drain runs that half inside its commit.
func (e *Enclave) flushDirtyNodesLocked(isNew bool) error {
	var ids []uuid.UUID
	depths := make(map[uuid.UUID]int)
	for id, n := range e.wb.nodes {
		if n.isNew != isNew {
			continue
		}
		ids = append(ids, id)
		if depths[id] = len(e.wb.nodes); n.dir != nil {
			depths[id] = e.dirtyDepthLocked(id)
		}
	}
	sort.Slice(ids, func(i, j int) bool {
		if depths[ids[i]] != depths[ids[j]] {
			return depths[ids[i]] > depths[ids[j]]
		}
		return bytes.Compare(ids[i][:], ids[j][:]) < 0
	})
	for _, id := range ids {
		n := e.wb.nodes[id]
		var err error
		switch {
		case n.file != nil:
			err = e.flushFilenodeLocked(n.file, n.base+1)
		case !isNew:
			if err = e.rebaseDirtyDirnodeLocked(id, n); err == nil {
				err = e.flushDirnodeLocked(n.dir, n.base+1)
			}
		default:
			err = e.flushDirnodeLocked(n.dir, n.base+1)
		}
		if err != nil {
			return err
		}
		e.dropDirtyNodeLocked(id)
	}
	return nil
}

// dirtyDepthLocked counts dirty ancestors of a dirty dirnode (bounded
// by the set size, so a corrupt parent cycle cannot loop forever).
func (e *Enclave) dirtyDepthLocked(id uuid.UUID) int {
	depth := 0
	cur := e.wb.nodes[id].dir
	for i := 0; i < len(e.wb.nodes); i++ {
		pn, ok := e.wb.nodes[cur.Parent]
		if !ok || pn.dir == nil {
			break
		}
		depth++
		cur = pn.dir
	}
	return depth
}

// rebaseDirtyDirnodeLocked re-reads the main object of a dirty dirnode
// the store already holds and, if the store has moved past the version
// the dirty copy derives from, replaces the copy with the on-store
// directory plus the replayed op log. The drain runs it inside its
// commit, so the flush at base+1 that follows cannot be overtaken;
// retryTornEcall runs it unlocked, to give a reader a shadow whose
// buckets still exist (the drain re-bases again).
func (e *Enclave) rebaseDirtyDirnodeLocked(id uuid.UUID, n *dirtyNode) error {
	blob, _, err := e.fetchObject(e.metrics.metaIO, objName(id))
	if err != nil {
		return fmt.Errorf("fetching dirnode %s: %w", id, err)
	}
	p, body, err := e.openBlobVerified(id, blob, metadata.TypeDirnode, n.dir.Parent)
	if err != nil {
		return err
	}
	if p.Version == n.base {
		return nil
	}
	fresh, err := metadata.DecodeDirnodeBody(id, n.dir.Parent, body)
	if err != nil {
		return err
	}
	if err := e.replayDirOpsLocked(fresh, n.ops); err != nil {
		return err
	}
	// The replayed copy is the node's dirty copy now: the drain flushes
	// it, at the store's version plus one.
	n.dir, n.base = fresh, p.Version
	return nil
}

// replayDirOpsLocked applies a deferred op log to a freshly loaded
// dirnode, last-writer-wins per name.
func (e *Enclave) replayDirOpsLocked(d *metadata.Dirnode, ops []dirOp) error {
	loader := e.bucketLoaderFor(d)
	for _, op := range ops {
		switch op.kind {
		case opInsert:
			err := d.Insert(op.entry, loader)
			if errors.Is(err, metadata.ErrEntryExists) {
				if _, rerr := d.Remove(op.entry.Name, loader); rerr != nil && !errors.Is(rerr, metadata.ErrEntryNotFound) {
					return rerr
				}
				err = d.Insert(op.entry, loader)
			}
			if err != nil {
				return err
			}
		case opRemove:
			if _, err := d.Remove(op.name, loader); err != nil && !errors.Is(err, metadata.ErrEntryNotFound) {
				return err
			}
		}
	}
	return nil
}

// createEntryWritebackLocked is the body of createEntry: the new child
// and the directory insert are marked dirty instead of flushed, and no
// store lock is taken (conflicts are merged at drain time).
func (e *Enclave) createEntryWritebackLocked(w walkResult, path, name string, kind metadata.EntryKind, symlinkTarget string) error {
	entry := metadata.DirEntry{
		Name:          name,
		UUID:          uuid.New(),
		Kind:          kind,
		SymlinkTarget: symlinkTarget,
	}
	if err := w.dir.Insert(entry, e.bucketLoaderFor(w.dir)); err != nil {
		if errors.Is(err, metadata.ErrEntryExists) {
			return fmt.Errorf("%w: %s", ErrExists, path)
		}
		return err
	}
	switch kind {
	case metadata.KindFile:
		e.markNewFilenodeLocked(metadata.NewFilenode(entry.UUID, w.dir.UUID, e.cfg.ChunkSize))
	case metadata.KindDir:
		e.markNewDirnodeLocked(metadata.NewDirnode(entry.UUID, w.dir.UUID, e.cfg.BucketSize))
	case metadata.KindSymlink:
		// Symlinks live entirely in the dirnode entry.
	}
	e.markDirnodeOpLocked(w.dir, w.version, dirOp{kind: opInsert, entry: entry})
	return e.maybeDrainLocked()
}

// removeWritebackLocked is the body of Remove. Object removals are
// staged (they run after all uploads in the drain); a remove of a
// still-pending create simply cancels it.
func (e *Enclave) removeWritebackLocked(w walkResult, path, name string) error {
	entry, err := w.dir.Lookup(name, e.bucketLoaderFor(w.dir))
	if err != nil {
		if errors.Is(err, metadata.ErrEntryNotFound) {
			return fmt.Errorf("%w: %s", ErrNotFound, path)
		}
		return err
	}

	switch entry.Kind {
	case metadata.KindDir:
		child, _, err := e.loadDirnode(entry.UUID, w.dir.UUID)
		if err != nil {
			return err
		}
		if child.EntryCount() != 0 {
			return fmt.Errorf("%w: %s", ErrNotEmpty, path)
		}
		if n, ok := e.wb.nodes[entry.UUID]; ok && n.isNew {
			// The store never saw it: cancelling the pending create is
			// the whole removal.
			e.dropDirtyNodeLocked(entry.UUID)
		} else {
			e.dropDirtyNodeLocked(entry.UUID)
			// In-memory Refs name on-store buckets (UUIDs are only
			// reassigned at flush) or never-stored ones, whose staged
			// deletes are tolerated as missing.
			for _, ref := range child.Refs {
				e.stageDeleteLocked(ref.UUID, true)
			}
			for _, old := range child.Retired {
				e.stageDeleteLocked(old, true)
			}
			e.stageDeleteLocked(entry.UUID, true)
			e.cache.invalidate(entry.UUID)
		}

	case metadata.KindFile:
		if n, ok := e.wb.nodes[entry.UUID]; ok && n.file != nil {
			// Pending create: cancel it; only an eagerly-uploaded data
			// object needs dropping.
			if n.file.HasDataObject() {
				e.stageDeleteLocked(n.file.DataUUID, false)
			}
			e.dropDirtyNodeLocked(entry.UUID)
		} else {
			// The link count races with concurrent WriteFile/Hardlink
			// from other clients, so the final-unlink decision stays
			// under the filenode's store lock rather than being deferred.
			fRelease, err := e.lockObject(objName(entry.UUID))
			if err != nil {
				return fmt.Errorf("locking filenode: %w", err)
			}
			defer fRelease()
			f, fv, err := e.loadFilenode(entry.UUID, w.dir.UUID)
			if err != nil {
				return err
			}
			if f.LinkCount > 1 {
				f.LinkCount--
				// The remaining links' directories are unknown; drop the
				// parent binding (nil = hardlink history, checked no
				// further — the dirnode entry UUID still binds structure).
				f.Parent = uuid.Nil
				if err := e.flushFilenodeLocked(f, fv+1); err != nil {
					return err
				}
			} else {
				if f.HasDataObject() {
					e.stageDeleteLocked(f.DataUUID, false)
				}
				e.stageDeleteLocked(entry.UUID, true)
				e.cache.invalidate(entry.UUID)
			}
		}

	case metadata.KindSymlink:
		// Entry-only; nothing else to delete.
	}

	if _, err := w.dir.Remove(name, e.bucketLoaderFor(w.dir)); err != nil {
		return err
	}
	e.markDirnodeOpLocked(w.dir, w.version, dirOp{kind: opRemove, name: name})
	return e.maybeDrainLocked()
}

// SyncMetadata drains all pending write-back metadata to the store: the
// barrier the untrusted layer invokes from File.Sync/Close, FS.Sync,
// and before cache drops. A drain that failed at a high-water mark is
// retried here and its error — store fault or integrity violation —
// reported. Before a volume is active it is a no-op.
func (e *Enclave) SyncMetadata() error {
	return e.retryTornEcall(func() error {
		e.mu.Lock()
		defer e.mu.Unlock()
		if e.rootKey == nil {
			return nil
		}
		return e.drainWithRetryLocked()
	})
}

// sortUUIDs orders ids deterministically (byte order).
func sortUUIDs(ids []uuid.UUID) {
	sort.Slice(ids, func(i, j int) bool { return bytes.Compare(ids[i][:], ids[j][:]) < 0 })
}
