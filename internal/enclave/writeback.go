package enclave

// Write-back metadata flushing (DESIGN.md §12). Sealing and uploading
// a filenode and a dirnode inline on every mutating op is one metadata
// round-trip per create/write, exactly the overhead the paper amortizes
// by caching decrypted metadata in enclave memory (§V-B). Creates and
// removes instead mark their metadata dirty in an in-enclave dirty set,
// and the set is drained in dependency order (children before the
// dirnodes that name them, deferred deletes last) at explicit barriers:
// SyncMetadata (File.Sync/Close and FS.Sync in vfs), ACL/user/sharing
// changes, DropCaches, and the op-count/byte high-water marks. The unit
// tests' constructors lower the op-count mark to 1, which drains after
// every mutation (per-op durability).
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
//     per-object update its puts and deletes carry: a flush only queues,
//     and the batch's commit takes them all.
//
// Deferred dirnode mutations also keep a per-node op log (insert/remove
// by name). New objects are put without any lock; every directory the
// store already holds is rewritten inside one commit
// (commitWithDrainLocked, DESIGN.md §12.4) under the freshness root's
// lock, the only lock a metadata commit takes: its on-store version is
// re-read there and — if another client advanced it meanwhile — the log
// is replayed onto the fresh copy (last-writer-wins per name) instead of
// clobbering it.

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"time"

	"nexus/internal/acl"
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
	// objects); the drain flushes at nextVersion(base) when the store is
	// unchanged.
	base uint64
	ops  []dirOp
	// charged is the EPC debt taken for holding this node pinned.
	charged int64
}

// pendingDelete is a store object whose removal is deferred to the end
// of the next drain (a metadata object's also deletes its Merkle leaf).
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

	// fresh holds the freshness updates of objects put but whose root
	// update has not landed yet: those a widening-only commit leaves to
	// the next root commit, and those of a batch that failed past its
	// first upload; the next root commit includes them.
	// freshAt is the epoch of the root the first of them was put under,
	// and wide reports that each is a widening-only commit's (the commit
	// sets it, exitLocked clears it as any other records arrive).
	fresh   map[uuid.UUID]uint64
	freshAt uint64
	wide    bool

	// undo holds, while a commit runs (commitWithDrainLocked), a copy of
	// each dirty node its op reached, as it was before the op changed it;
	// widened reports that the commit leaves its records to the next one
	// (widenLocked).
	undo    map[uuid.UUID]*dirtyNode
	widened bool
}

// versionStride spaces the versions a root commit writes (DESIGN.md
// §15.2). A widening-only commit rewrites a dirnode at its version plus
// one and leaves the leaf where it was; any other rewrite of a dirnode
// the store holds lands at the next multiple of the stride, above every
// version a widening-only commit of any client may have put since the
// version it read, even one the store hid from it. So no object version
// a root commit supersedes can share a number with its successor.
const versionStride = 1 << 32

// nextVersion is the version a rewrite of a dirnode at version base is
// sealed at: base+1 for a new object (base 0) or a widening-only commit,
// else base's next multiple of versionStride.
func nextVersion(base uint64, widening bool) uint64 {
	if widening || base == 0 {
		return base + 1
	}
	return base - base%versionStride + versionStride
}

func newDirtySet() *dirtySet {
	return &dirtySet{
		maxOps:  defaultWritebackMaxOps,
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
// (and counted in enclave_best_effort_drain_failures_total) and
// durability is reported at the explicit barriers, which are idempotent
// drains of whatever remains.
func (e *Enclave) maybeDrainLocked() error {
	if e.wb.ops < e.wb.maxOps && e.wb.bytes < defaultWritebackMaxBytes && !e.wb.pressure {
		return nil
	}
	// What the operation itself queued is not best-effort: it leaves first.
	if err := e.exitLocked(); err != nil {
		return err
	}
	if err := e.drainLocked(); err != nil {
		e.metrics.drainFailures.Inc()
	}
	// The drain's last exit, as best-effort as the drain.
	if err := e.exitLocked(); err != nil {
		e.metrics.drainFailures.Inc()
	}
	return nil
}

// drainWithRetryLocked is the barrier-grade drain: ErrStoreUnavailable
// is retried with a short deterministic backoff (the drain is
// idempotent — already-flushed nodes have left the set), anything else
// surfaces immediately. Only a drain that carries no put of its caller's
// may retry: a retried drain would succeed without the put that failed.
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

// widenLocked is called by a commit's op whose change only adds rights —
// an ACL entry given a superset of its rights — before it seals what it
// changed. It reports whether the commit is then widening-only: it drains
// nothing, and every freshness record already waiting is a widening-only
// commit's, so a narrowing change whose root update failed is not left
// waiting behind it.
func (e *Enclave) widenLocked() bool {
	e.wb.widened = e.wb.undo != nil && len(e.wb.nodes) == 0 && len(e.wb.deletes) == 0 &&
		(len(e.wb.fresh) == 0 || e.wb.wide)
	return e.wb.widened
}

// drainLocked flushes the whole dirty set: a commit with nothing of its
// own (commitWithDrainLocked). It also commits the freshness records of
// puts its caller queued outside a commit — an overwrite's filenode, a new
// volume's objects. On failure the un-flushed portion of the set is left
// intact for retry.
func (e *Enclave) drainLocked() error {
	if len(e.wb.nodes) == 0 && len(e.wb.deletes) == 0 && !e.freshPendingLocked() {
		return nil
	}
	return e.commitWithDrainLocked(nil, nil)
}

// commitWithDrainLocked is the one metadata commit (DESIGN.md §12.4): that
// of a barrier op — Rename, Hardlink, SetACL, the supernode changes and the
// unlink of a file with other links — and of a drain (fn nil). The op's
// change and everything the dirty set holds, its nodes, staged deletes and
// freshness records, leave together, under the locks the op already holds.
// It takes the freshness root's store lock — the one lock a commit takes,
// whose reply revalidates the root — re-reads the root, advances it once
// for every object flushed since the last commit, and puts it before the
// single unlock. When the commit fails, the collected records stay in
// wb.fresh and the next commit includes them. Commits do not nest. A
// filenode lock the operation needs is taken before the root lock, never
// under it (commitFilesLocked).
//
// The dirnodes the store holds are re-read with the root, in its exit, and
// re-based first, so fn walks and changes their latest versions. fn then
// makes the op's change and queues its own puts. Only then is the dirty set
// sealed — after an ACL change or a key rotation, so no metadata of before
// it is left to land later (§VII-E). The batch is in soft-update order: the
// new nodes first, children before the directories that name them, so an
// object is put before anything names it; then fn's puts, in fn's order (a
// link count raised before a new name for the file appears, a name cleared
// before a count drops); then the other dirnodes; the staged deletes last.
// A dirty node fn puts itself leaves the set with the rest.
//
// A drain with no dirty node or staged delete commits freshness records
// alone: those of puts its caller queued — an overwrite's filenode, a new
// volume's objects; such a drain is no flush batch — and those waiting in
// wb.fresh, as a widening-only commit leaves them. It knows its whole batch
// before the root's re-read, so its freshness update is staged as the last
// call of the re-read's exit, unless a queued root put moves the epoch
// first; the staged proofs are dropped when the re-read finds the root
// moved and the waiting records are proved again.
//
// A widening-only commit — its op only adds rights (widenLocked) — stops
// before the root advance: its put and the unlock leave in one exit, whose
// failure is the commit's, and its records wait in wb.fresh for the next
// commit that advances the root. A store that rolls the object back to its
// leaf shows a reader less access than the latest version grants, never
// more (§15.2).
//
// If the commit fails, each dirty node fn reached is put back as it was
// before fn changed it: the op fails whole, and the set stays as it was.
func (e *Enclave) commitWithDrainLocked(ahead []*storeCall, fn func() error) (err error) {
	dirty := len(e.wb.nodes) > 0 || len(e.wb.deletes) > 0
	freshOnly := fn == nil && !dirty && slices.ContainsFunc(e.queued, func(c *storeCall) bool { return len(c.fresh) > 0 })
	drain := !freshOnly && (fn == nil || dirty)
	if drain {
		span := e.metrics.tracer.Begin("enclave.flush_batch")
		span.SetTagInt("objects", int64(len(e.wb.nodes)))
		span.SetTagInt("ops", int64(e.wb.ops))
		span.SetTagInt("deletes", int64(len(e.wb.deletes)))
		defer span.End()
	}
	e.wb.undo = make(map[uuid.UUID]*dirtyNode)
	defer func() {
		if err != nil {
			for id, saved := range e.wb.undo {
				if n, ok := e.wb.nodes[id]; ok {
					n.dir, n.file = saved.dir, saved.file
				}
			}
		}
		e.wb.undo, e.wb.widened = nil, false
	}()

	release, released := e.lockObject(MerkleRootObjectName), false
	defer func() {
		if !released {
			release()
		}
	}()
	waiting, at := maps.Clone(e.wb.fresh), e.wb.freshAt
	ahead = append(e.drainAheadLocked(), ahead...)
	var staged [][]byte
	if fn == nil && !dirty && !e.rootPutQueuedLocked() {
		epoch, batch := e.mkEpoch, e.rootBatchLocked()
		var proofs [][]byte
		ahead = append(ahead, &storeCall{op: opRun, run: func() (err error) {
			proofs, err = e.store.FreshnessUpdate(epoch, batch)
			return err
		}, done: func(c *storeCall) error {
			if c.err == nil {
				staged = proofs
			}
			return nil // a failed staging only makes advanceRootLocked ask again
		}})
	}
	// Another client may have advanced the epoch since the commitment was
	// last loaded.
	if err := e.loadMerkleRootLocked(true, ahead...); err != nil {
		return err
	}
	reproved, err := e.reproveLocked(waiting, at)
	if err != nil {
		return err
	}
	if reproved {
		staged = nil // staged before the root moved: the batch is asked again
	}

	for _, id := range e.dirtyOrderLocked(false) {
		if err := e.rebaseDirtyDirnodeLocked(id, e.wb.nodes[id]); err != nil {
			return err
		}
	}
	if fn != nil {
		if err := fn(); err != nil {
			return err
		}
	}
	// What is queued now is fn's: the root's re-read took the rest.
	own := e.queued
	e.queued = nil
	ownNew, err := e.flushDirtyNodesLocked(true, own)
	if err != nil {
		return err
	}
	e.queued = append(e.queued, own...)
	for _, id := range ownNew {
		e.onSuccessLocked(func() { e.dropDirtyNodeLocked(id) })
	}
	if _, err := e.flushDirtyNodesLocked(false, own); err != nil {
		return err
	}
	// Deferred deletes, FIFO, last — nothing on the store references
	// these objects any more.
	for _, del := range e.wb.deletes {
		var fresh map[uuid.UUID]uint64
		if del.meta {
			fresh = map[uuid.UUID]uint64{del.id: 0}
		}
		e.deleteObject(objName(del.id), fresh, func(c *storeCall) error {
			if c.err == nil {
				e.wb.deletes = e.wb.deletes[1:]
				delete(e.wb.delSeen, del.id)
			}
			return c.err
		})
	}
	if drain {
		e.wb.ops, e.wb.bytes, e.wb.pressure = 0, 0, false
		e.metrics.flushBatches.Inc()
		e.metrics.dirtyGauge.Set(0)
	}

	if e.wb.widened {
		// What waited was a widening-only commit's, and the exit makes only
		// this one's calls: the root's re-read took what was queued before.
		release()
		released = true
		err := e.exitLocked()
		e.wb.wide = true
		return err
	}
	return e.advanceRootLocked(staged)
}

// drainAheadLocked names the reads a commit's re-bases make, to ride the
// root's re-read: each dirty dirnode the store holds and its proof, at the
// epoch a queued root put moves the root to (a re-read that finds another
// epoch asks for proofs again).
func (e *Enclave) drainAheadLocked() []*storeCall {
	epoch := e.mkEpoch
	if e.rootPutQueuedLocked() {
		epoch++
	}
	var ahead []*storeCall
	for _, id := range e.dirtyOrderLocked(false) {
		ahead = append(ahead,
			&storeCall{op: opGet, name: objName(id), ahead: true},
			&storeCall{op: opProof, id: id, version: epoch, ahead: true})
	}
	return ahead
}

// keepUndoLocked keeps, the first time a commit's op reaches the dirty node
// id, a copy of it to put back if the commit fails (commitWithDrainLocked).
func (e *Enclave) keepUndoLocked(id uuid.UUID) {
	if e.wb.undo == nil || e.wb.undo[id] != nil {
		return
	}
	n := e.wb.nodes[id]
	saved := &dirtyNode{}
	if n.dir != nil {
		saved.dir = cloneDirnode(n.dir)
	} else {
		saved.file = n.file.Clone()
	}
	e.wb.undo[id] = saved
}

// cloneDirnode copies d deeply enough that nothing an op changes in one
// copy shows in the other: its ACL, bucket table and resident entries.
func cloneDirnode(d *metadata.Dirnode) *metadata.Dirnode {
	c := *d
	c.ACL = d.ACL.Clone()
	c.Refs = slices.Clone(d.Refs)
	c.Retired = slices.Clone(d.Retired)
	c.Buckets = make([]*metadata.Bucket, len(d.Buckets))
	for i, b := range d.Buckets {
		if b != nil {
			nb := *b
			nb.Entries = slices.Clone(b.Entries)
			c.Buckets[i] = &nb
		}
	}
	return &c
}

// flushDirtyNodesLocked seals and queues the dirty nodes that are new
// (isNew) or the ones the store already holds, children first: filenodes
// — all new — so no dirnode upload references a file object missing from
// the store, then dirnodes deepest-first (depth = number of dirty ancestors
// via the Parent chain), so a parent referencing a new child directory
// uploads after the child exists. A node whose put is among own, the
// calls the commit's op queued, is not put again: the new ones are
// returned, to leave the set once own is made; the others leave the set
// with the rest of the batch.
func (e *Enclave) flushDirtyNodesLocked(isNew bool, own []*storeCall) (ownNew []uuid.UUID, err error) {
	for _, id := range e.dirtyOrderLocked(isNew) {
		n, name := e.wb.nodes[id], objName(id)
		switch {
		case slices.ContainsFunc(own, func(c *storeCall) bool { return c.op == opPut && c.name == name }):
			if isNew {
				ownNew = append(ownNew, id)
				continue
			}
		case n.file != nil:
			err = e.putFilenodeLocked(n.file, n.base+1)
		default:
			err = e.flushDirnodeLocked(n.dir, nextVersion(n.base, false))
		}
		if err != nil {
			return nil, err
		}
		e.onSuccessLocked(func() { e.dropDirtyNodeLocked(id) })
	}
	return ownNew, nil
}

// dirtyOrderLocked lists the nodes flushDirtyNodesLocked flushes, in order.
func (e *Enclave) dirtyOrderLocked(isNew bool) []uuid.UUID {
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
	return ids
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
// directory plus the replayed op log. A commit runs it first, under the
// root's lock (commitWithDrainLocked), so the flush after base that follows
// cannot be overtaken; ecall runs it outside a commit, to give a reader a
// shadow whose buckets still exist (the drain re-bases again).
func (e *Enclave) rebaseDirtyDirnodeLocked(id uuid.UUID, n *dirtyNode) error {
	blob, _, err := e.fetchObject(objName(id))
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
func (e *Enclave) createEntryWritebackLocked(w walkResult, path, name string, kind metadata.EntryKind, symlinkTarget string) (metadata.DirEntry, error) {
	entry := metadata.DirEntry{
		Name:          name,
		UUID:          uuid.New(),
		Kind:          kind,
		SymlinkTarget: symlinkTarget,
	}
	if err := w.dir.Insert(entry, e.bucketLoaderFor(w.dir)); err != nil {
		if errors.Is(err, metadata.ErrEntryExists) {
			return entry, fmt.Errorf("%w: %s", ErrExists, path)
		}
		return entry, err
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
	return entry, nil
}

// removeWritebackLocked is the body of Remove. Object removals are
// staged (they run after all uploads in the drain); a remove of a
// still-pending create simply cancels it. The unlink of a file with other
// links is a commit of its own (removeLinkLocked).
func (e *Enclave) removeWritebackLocked(w walkResult, dirs []string, path, name string) error {
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
		// A pending create the store never saw is cancelled, and that is
		// the whole removal.
		n, pending := e.wb.nodes[entry.UUID]
		e.dropDirtyNodeLocked(entry.UUID)
		if !pending || !n.isNew {
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
			defer e.lockObject(objName(entry.UUID))()
			unlink, last, err := e.unlinkFileLocked(w.dir.UUID, entry.UUID)
			if err != nil {
				return err
			}
			if !last {
				return e.removeLinkLocked(dirs, path, name, entry.UUID, unlink)
			}
			if err := unlink(); err != nil { // the drain puts this directory before any staged delete
				return err
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

// removeLinkLocked removes the name path of the file id, which has other
// links, under the filenode's lock, which the caller holds: one commit with
// the drain, which re-walks to the directory under the root's lock, clears
// the name, puts the directory and only then queues unlink, the filenode's
// put with one link fewer. A name is cleared before a link count drops, so
// no directory on the store ever names a file whose count misses it.
func (e *Enclave) removeLinkLocked(dirs []string, path, name string, id uuid.UUID, unlink func() error) error {
	return e.commitWithDrainLocked(getsAhead(e.predictWalksLocked(dirs)), func() error {
		w, err := e.walkDirLocked(dirs)
		if err != nil {
			return err
		}
		if err := e.checkACLLocked(w.dir, acl.Delete); err != nil {
			return err
		}
		entry, err := e.lookupEntryLocked(w.dir, name, path)
		if err != nil {
			return err
		}
		if entry.UUID != id {
			// A peer replaced the name since the unlocked walk.
			return fmt.Errorf("%w: %s no longer names the file it named", ErrNotFound, path)
		}
		if _, err := w.dir.Remove(name, e.bucketLoaderFor(w.dir)); err != nil {
			return err
		}
		if err := e.flushDirnodeLocked(w.dir, nextVersion(w.version, false)); err != nil {
			return err
		}
		return unlink()
	})
}

// unlinkFileLocked drops the link named in directory dir to the on-store
// file id, under the filenode's lock, which the caller holds: it is
// Remove's unlink and Rename's onto a file. The caller calls unlink once it
// has queued the put of every directory that named the file through this
// link. For a file with other links (last false), unlink queues the
// filenode's put with one link fewer and no parent binding — the remaining
// links' directories are unknown; nil is hardlink history, checked no
// further, and the dirnode entry's UUID still binds structure. The count
// drops in a copy, so the cached filenode stays as the store has it until
// that put is made. For the last link, unlink stages the deletes of the
// filenode, whose Merkle leaf the drain zeroes, and of its data object,
// and drops the cached copy: the caller calls it once no directory it may
// still put names the file.
func (e *Enclave) unlinkFileLocked(dir, id uuid.UUID) (unlink func() error, last bool, err error) {
	f, fv, err := e.loadFilenode(id, dir)
	if err != nil {
		return nil, false, err
	}
	if f.LinkCount > 1 {
		next := f.Clone()
		next.LinkCount--
		next.Parent = uuid.Nil
		return func() error { return e.putFilenodeLocked(next, fv+1) }, false, nil
	}
	return func() error {
		if f.HasDataObject() {
			e.stageDeleteLocked(f.DataUUID, false)
		}
		e.stageDeleteLocked(id, true)
		e.cache.invalidate(id)
		return nil
	}, true, nil
}

// SyncMetadata drains all pending write-back metadata to the store: the
// barrier the untrusted layer invokes from File.Sync/Close, FS.Sync,
// and before cache drops. A drain that failed at a high-water mark is
// retried here and its error — store fault or integrity violation —
// reported. Before a volume is active it is a no-op.
func (e *Enclave) SyncMetadata() error {
	return e.ecall(noAuth, func() error {
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
