package enclave

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"nexus/internal/acl"
	"nexus/internal/backend"
	"nexus/internal/metadata"
	"nexus/internal/sgx"
	"nexus/internal/uuid"
)

// metaCache holds decrypted metadata objects inside the enclave, keyed by
// UUID and validated against the backing store's version numbers (the
// prototype caches metadata "unencrypted in enclave memory", §V-B). Its
// memory is charged against the SGX EPC budget; on exhaustion the cache
// is dropped wholesale, modelling EPC pressure.
type metaCache struct {
	sgx     *sgx.Enclave
	entries map[uuid.UUID]*cacheEntry
	// hints' generation moves when an entry is replaced or dropped: what
	// a walk predicted from the cache may no longer hold. A first fill
	// only lengthens a prediction, so it does not count.
	hints *walkHints
}

type cacheEntry struct {
	// version is the store version the decode came from. It may be a
	// counter local to one adapter (vfs.VersionedStore), which a peer's put
	// through another adapter does not move — hence the second key below.
	version uint64
	// objVersion is the sealed preamble version of the cached object. A
	// hit requires the fetched bytes to carry it, and reports it: the next
	// flush of the object builds on it.
	objVersion uint64
	obj        any   // *metadata.Dirnode or *metadata.Filenode
	charged    int64 // EPC bytes charged
}

func newMetaCache(container *sgx.Enclave, hints *walkHints) *metaCache {
	return &metaCache{sgx: container, entries: make(map[uuid.UUID]*cacheEntry), hints: hints}
}

// get returns the decrypted copy of id if it was decoded from blob: the
// store reports the version it did then and blob's preamble carries the
// sealed version the copy has. The preamble is unauthenticated here, which
// is safe in both directions: the store could already replay the old bytes
// whole, and a mismatch only sends the caller to the verified decode.
func (c *metaCache) get(id uuid.UUID, version uint64, blob []byte) (any, uint64, bool) {
	entry, ok := c.entries[id]
	if !ok || entry.version != version {
		return nil, 0, false
	}
	if p, err := metadata.PeekPreamble(blob); err != nil || p.Version != entry.objVersion {
		return nil, 0, false
	}
	return entry.obj, entry.objVersion, true
}

func (c *metaCache) put(id uuid.UUID, version, objVersion uint64, obj any, approxSize int64) {
	c.invalidate(id)
	if err := c.sgx.AllocEPC(approxSize); err != nil {
		// EPC pressure: evict everything and retry once.
		c.clear()
		if err := c.sgx.AllocEPC(approxSize); err != nil {
			return // object stays uncached
		}
	}
	c.entries[id] = &cacheEntry{version: version, objVersion: objVersion, obj: obj, charged: approxSize}
}

func (c *metaCache) invalidate(id uuid.UUID) {
	if old, ok := c.entries[id]; ok {
		c.sgx.FreeEPC(old.charged)
		delete(c.entries, id)
		c.hints.gen.Add(1)
	}
}

func (c *metaCache) clear() {
	for id := range c.entries {
		c.invalidate(id)
	}
}

// objName is the store name of a metadata or data object.
func objName(id uuid.UUID) string { return id.String() }

// storeOp is what a storeCall asks of the store.
type storeOp uint8

const (
	opGet    storeOp = iota // name → blob, version
	opPut                   // name, blob → version
	opDelete                // name; an object already gone counts as removed
	opLock                  // name → unlock
	opUnlock                // lock.unlock; made even after an earlier call failed
	opProof                 // the freshness proof of id at epoch version → blob
	opRun                   // run
)

// storeCall is one store call of an enclave exit (exitLocked): arguments,
// results, and done, which takes them back inside — or, for a read made
// ahead of use, the stash. fresh are the freshness records a metadata put
// or delete makes true once it succeeds. data marks a call that moves a
// data object's bytes: its time is data I/O, every other call's metadata
// I/O (makeCall).
type storeCall struct {
	op      storeOp
	name    string
	id      uuid.UUID
	blob    []byte
	version uint64
	err     error
	ahead   bool
	data    bool
	lock    *storeCall
	unlock  func()
	run     func() error
	done    func(c *storeCall) error
	fresh   map[uuid.UUID]uint64
}

// errNotMade is the result of a call made after a failed one in its exit.
var errNotMade = errors.New("enclave: store call not made: an earlier call failed")

// exitLocked leaves the enclave once (DESIGN.md §11.5): one ocall makes
// the queued calls and then calls, in order, until one fails (unlocks are
// made whatever failed). Back inside, each done takes its call's result in
// order — nil, its own error or errNotMade — and the first error a call
// returns, through its done if it has one, is returned.
func (e *Enclave) exitLocked(calls ...*storeCall) error {
	batch := append(e.queued, calls...)
	e.queued = nil
	if len(batch) == 0 {
		return nil
	}
	if err := e.sgx.Ocall(func() error {
		failed, start := false, ioNow()
		for _, c := range batch {
			if failed && c.op != opUnlock {
				c.err = errNotMade
				continue
			}
			start = e.makeCall(c, start)
			failed = failed || c.err != nil
		}
		return nil
	}); err != nil {
		for _, c := range batch {
			c.err = err // the enclave could not leave
		}
	}
	var first error
	for _, c := range batch {
		err := c.err
		if err == nil && len(c.fresh) > 0 {
			if len(e.wb.fresh) == 0 {
				e.wb.fresh = make(map[uuid.UUID]uint64)
				e.wb.freshAt = e.mkEpoch
			}
			e.wb.wide = false
			maps.Copy(e.wb.fresh, c.fresh)
		}
		switch {
		case c.ahead:
			if err != errNotMade {
				e.stash = append(e.stash, c)
			}
			err = nil
		case c.done != nil:
			err = c.done(c)
		}
		if first == nil {
			first = err
		}
	}
	return first
}

// makeCall makes c outside the enclave — every store call is made here —
// and charges the call's own time, from start, which excludes the
// transition, to the I/O meter of its class: data I/O for a call that
// moves a data object's bytes, metadata I/O for any other (DESIGN.md
// §11.1). It returns the call's end, the start of a call made next; both
// are ioNow readings. A storage-substrate fault (unreachable service,
// timeout, interrupted exchange) gains the ErrStoreUnavailable sentinel,
// keeping the backend sentinel in the chain.
func (e *Enclave) makeCall(c *storeCall, start time.Duration) time.Duration {
	switch c.op {
	case opGet:
		c.blob, c.version, c.err = e.store.GetVersioned(c.name)
	case opPut:
		c.version, c.err = e.store.PutVersioned(c.name, c.blob)
	case opDelete:
		if c.err = e.store.Delete(c.name); isNotExist(c.err) {
			c.err = nil
		}
	case opLock:
		c.unlock, c.err = e.store.Lock(c.name)
	case opUnlock:
		if c.lock.unlock != nil {
			c.lock.unlock()
		}
	case opProof:
		c.blob, c.err = e.store.FreshnessProof(c.id, c.version)
	case opRun:
		c.err = c.run()
	}
	if c.err != nil && backend.IsUnavailable(c.err) {
		c.err = fmt.Errorf("%w: %w", ErrStoreUnavailable, c.err)
	}
	m := e.metrics.metaIO
	if c.data {
		m = e.metrics.dataIO
	}
	end := ioNow()
	m.ns.Add(int64(end - start))
	m.lat.Record(end - start)
	return end
}

// ioEpoch is the fixed instant ioNow counts from.
var ioEpoch = time.Now()

// ioNow reads the monotonic clock that store calls are timed by. A
// time.Since reads only that clock, where time.Now also reads the wall
// clock: about three times the cost, paid once per store call.
func ioNow() time.Duration { return time.Since(ioEpoch) }

// onSuccessLocked runs fn once every call queued so far has been made
// successfully, and never if one fails: it queues a call that calls nothing.
func (e *Enclave) onSuccessLocked(fn func()) {
	e.queued = append(e.queued, &storeCall{op: opRun, run: func() error { return nil }, done: func(c *storeCall) error {
		if c.err == nil {
			fn()
		}
		return nil
	}})
}

// aheadRead names a read made ahead of the read that takes it: an
// object, and whether it is a data object (storeCall.data).
type aheadRead struct {
	name string
	data bool
}

// getsAhead returns the store calls of reads made ahead.
func getsAhead(reads []aheadRead) []*storeCall {
	calls := make([]*storeCall, len(reads))
	for i, r := range reads {
		calls[i] = &storeCall{op: opGet, name: r.name, ahead: true, data: r.data}
	}
	return calls
}

// takeStashedLocked hands out the result of the read want stands for,
// when a read made ahead holds it (a proof's version is its epoch).
func (e *Enclave) takeStashedLocked(want storeCall) (*storeCall, bool) {
	for i, c := range e.stash {
		if c.op == want.op && c.name == want.name && c.id == want.id && (c.op != opProof || c.version == want.version) {
			e.stash = slices.Delete(e.stash, i, i+1)
			e.metrics.prefetchUsed.Inc()
			return c, true
		}
	}
	return nil, false
}

// dropStashedLocked discards the stashed reads of the named object, or
// every one when name is empty.
func (e *Enclave) dropStashedLocked(name string) {
	n := len(e.stash)
	e.stash = slices.DeleteFunc(e.stash, func(c *storeCall) bool { return name == "" || c.name == name })
	e.metrics.prefetchDiscarded.Add(int64(n - len(e.stash)))
}

// maxWalkHints bounds the hint table: a walk's hint is a handful of
// object names, so a full table is a few hundred KiB of host memory.
const maxWalkHints = 4096

// walkKind is the read-only walk a hint is for: its prediction differs
// by what the walk reads at the end of its path.
type walkKind uint8

const (
	walkLookup walkKind = iota // Lookup: the leaf's filenode
	walkRead                   // ReadFile: the filenode and its data object
	walkList                   // Filldir: the directory itself
)

type walkKey struct {
	kind walkKind
	path string
}

// walkHints lets a warm walk make no exit (DESIGN.md §11.5). Its table,
// host memory, holds for each read-only walk the reads the enclave
// predicted, at the walk's end, that the next walk of the same kind and
// path makes; the ecall stub makes them before entering (readAhead). It
// holds only object names, each marked when it is a data object's, which
// the host sees anyway in the ocall a hint replaces.
//
// gen is the one staleness rule for the table and for the reads made from
// it. It moves at the end of every ecall that is not a read-only walk
// (leaveLocked) and when the decrypted cache replaces or drops an entry
// (metaCache.invalidate). The table is used only at the generation it was
// built at, and a walk drops the reads its stub made at an older one
// (enterWalkLocked). gen moves only under the enclave's mu, where hints
// are also written, so several moves in one ecall act as one; it is an
// atomic because the stub reads it outside.
type walkHints struct {
	gen atomic.Uint64

	mu    sync.Mutex
	at    uint64 // the generation table was built at
	table map[walkKey][]aheadRead
}

// get returns the reads hinted for key and the generation they were
// predicted at, if that generation is current.
func (h *walkHints) get(key walkKey) ([]aheadRead, uint64, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	reads, ok := h.table[key]
	if !ok || h.at != h.gen.Load() {
		return nil, 0, false
	}
	return reads, h.at, true
}

// put records the reads predicted for key at the current generation,
// rebuilding the table if it was built at an older one, and evicting an
// arbitrary other hint when it is full.
func (h *walkHints) put(key walkKey, reads []aheadRead) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if gen := h.gen.Load(); h.table == nil || h.at != gen {
		h.table, h.at = make(map[walkKey][]aheadRead), gen
	}
	if _, ok := h.table[key]; !ok && len(h.table) >= maxWalkHints {
		for k := range h.table {
			delete(h.table, k)
			break
		}
	}
	h.table[key] = reads
}

// readWalk is one read-only walk of path (Lookup, ReadFile or Filldir,
// by kind): the reads its ecall stub made before entering, with the
// generation of the hint they followed, and what the walk inside found —
// the split path and whether it used those reads.
type readWalk struct {
	walkKey
	reads []*storeCall
	gen   uint64

	dirs []string
	name string
	used bool
}

// readAhead is the untrusted half of a read-only walk's ecall stub. It
// makes the reads the hint for (kind, path) names through the enclave's
// store, in order, stopping at the first that fails.
func (e *Enclave) readAhead(kind walkKind, path string) *readWalk {
	w := &readWalk{walkKey: walkKey{kind: kind, path: path}}
	reads, gen, ok := e.hints.get(w.walkKey)
	if !ok {
		return w
	}
	w.reads, w.gen = getsAhead(reads), gen
	start := ioNow()
	for i, c := range w.reads {
		if start = e.makeCall(c, start); c.err != nil {
			w.reads = w.reads[:i+1]
			break
		}
	}
	return w
}

// enterWalkLocked is the trusted start of a read-only walk, and marks the
// ecall as one (leaveLocked). It stashes the reads the stub made, as reads
// made ahead — unless the hints' generation moved since their hint was
// written: then they are dropped unused. It splits the path, and when no
// read is stashed it reads what the walk's prediction names in one exit.
func (e *Enclave) enterWalkLocked(w *readWalk) error {
	e.walking = true
	reads := w.reads
	w.reads, w.used = nil, false // a retried walk reads again
	if len(reads) > 0 && w.gen == e.hints.gen.Load() {
		e.stash, w.used = append(e.stash, reads...), true
	} else {
		e.metrics.prefetchDiscarded.Add(int64(len(reads)))
	}
	var err error
	if w.dirs, w.name, err = splitPath(w.path); err != nil {
		return err
	}
	if w.kind == walkList && w.name != "" {
		w.dirs, w.name = append(w.dirs, w.name), ""
	}
	if w.kind == walkRead && w.name == "" {
		return fmt.Errorf("%w: %s", ErrNotFile, w.path)
	}
	if len(e.stash) == 0 {
		return e.exitLocked(getsAhead(e.predictReadWalkLocked(w))...)
	}
	return nil
}

// predictReadWalkLocked names the reads the read-only walk w makes.
func (e *Enclave) predictReadWalkLocked(w *readWalk) []aheadRead {
	switch w.kind {
	case walkLookup:
		return e.predictWalkLocked(w.dirs, w.name, acl.Lookup)
	case walkRead:
		return e.predictWalkLocked(w.dirs, w.name, acl.Read)
	}
	return e.predictWalkLocked(w.dirs, "", 0)
}

// hintWalkLocked ends a read-only walk that got past enterWalkLocked: it
// leaves in the table what the next walk of the same kind and path reads.
// A walk that used a hint and changed nothing leaves that hint as it is.
func (e *Enclave) hintWalkLocked(w *readWalk) {
	if w.used && w.gen == e.hints.gen.Load() {
		return
	}
	e.hints.put(w.walkKey, e.predictReadWalkLocked(w))
}

// fetchObject retrieves a metadata object's raw bytes (fetch).
func (e *Enclave) fetchObject(name string, ahead ...*storeCall) ([]byte, uint64, error) {
	return e.fetch(storeCall{op: opGet, name: name}, ahead...)
}

// fetch makes the read get through the ocall surface. A read made ahead
// in this ecall is served from the stash; any other makes an exit, with
// the reads ahead after it.
func (e *Enclave) fetch(get storeCall, ahead ...*storeCall) ([]byte, uint64, error) {
	if c, ok := e.takeStashedLocked(get); ok {
		return c.blob, c.version, c.err
	}
	err := e.exitLocked(append([]*storeCall{&get}, ahead...)...)
	return get.blob, get.version, err
}

// putObject queues an upload of raw object bytes, and returns the queued
// call; done, when set, takes the store's version (c.version) or the
// failure (c.err) once it is made.
func (e *Enclave) putObject(name string, data []byte, fresh map[uuid.UUID]uint64, done func(c *storeCall) error) *storeCall {
	e.dropStashedLocked(name)
	put := &storeCall{op: opPut, name: name, blob: data, fresh: fresh, done: done}
	e.queued = append(e.queued, put)
	return put
}

// deleteObject queues the removal of an object.
func (e *Enclave) deleteObject(name string, fresh map[uuid.UUID]uint64, done func(c *storeCall) error) {
	e.dropStashedLocked(name)
	e.queued = append(e.queued, &storeCall{op: opDelete, name: name, fresh: fresh, done: done})
}

// lockObject queues the store's advisory lock on an object. Reads made
// under a lock must follow it, so nothing read ahead before it survives.
// The release it returns, to be called once, queues the unlock: a store
// call like any other, made outside the enclave.
func (e *Enclave) lockObject(name string) (release func()) {
	e.dropStashedLocked("")
	lock := &storeCall{op: opLock, name: name, done: failing("locking")}
	e.queued = append(e.queued, lock)
	return func() { e.queued = append(e.queued, &storeCall{op: opUnlock, lock: lock}) }
}

// failing is a done that names the failed call and its object.
func failing(what string) func(c *storeCall) error {
	return func(c *storeCall) error {
		if c.err != nil {
			return fmt.Errorf("%s %s: %w", what, c.name, c.err)
		}
		return nil
	}
}

// walkEcall is ecall for a read-only walk of path (Lookup, ReadFile,
// Filldir, by kind): its stub makes the reads the walk's hint names before
// the transition (readAhead), and bodyLocked runs between enterWalkLocked
// and hintWalkLocked.
func (e *Enclave) walkEcall(kind walkKind, path string, bodyLocked func(w *readWalk) error) error {
	w := e.readAhead(kind, path)
	return e.ecall(needAuth, func() error {
		if err := e.enterWalkLocked(w); err != nil {
			return err
		}
		defer e.hintWalkLocked(w)
		return bodyLocked(w)
	})
}

// leaveLocked ends an ecall body: the calls it left queued — unlocks, the
// root put that ends its last commit — leave in a last exit, whose failure
// is the ecall's if it had none, and unused reads made ahead are dropped.
// An ecall that is not a read-only walk moves the hints' generation: it
// may have changed what a prediction reads — the store, the dirty set,
// the user, the supernode — so no hint written, and no read a stub made,
// before it is used after it.
func (e *Enclave) leaveLocked(err *error) {
	if ferr := e.exitLocked(); *err == nil {
		*err = ferr
	}
	e.dropStashedLocked("")
	if !e.walking {
		e.hints.gen.Add(1)
	}
	e.walking = false
}

// loadDirnode returns the directory at id, from the decrypted cache when
// the store version is unchanged.
func (e *Enclave) loadDirnode(id, parent uuid.UUID) (*metadata.Dirnode, uint64, error) {
	// A write-back dirty copy shadows both the cache and the store: it
	// carries mutations the store has not seen yet. The returned version
	// is the store version the copy derives from, so an eventual flush
	// at nextVersion of it lines up with the on-store preamble.
	if d, base, ok := e.dirtyDirnodeLocked(id); ok {
		if d.Parent != parent {
			return nil, 0, fmt.Errorf("%w: dirnode %s has parent %s, want %s (file-swap defence)",
				metadata.ErrTampered, id, d.Parent, parent)
		}
		e.keepUndoLocked(id)
		return d, base, nil
	}
	// Fetch is served by the AFS client cache (no network) when the
	// callback promise is intact; its version and the preamble's validate
	// the decrypted in-enclave copy, and the bytes are reused on a decode
	// miss.
	blob, storeVersion, err := e.fetchObject(objName(id))
	if err != nil {
		return nil, 0, fmt.Errorf("fetching dirnode %s: %w", id, err)
	}
	if obj, objVersion, ok := e.cache.get(id, storeVersion, blob); ok {
		if d, ok := obj.(*metadata.Dirnode); ok && d.Parent == parent {
			e.metrics.metadataCacheHits.Inc()
			return d, objVersion, nil
		}
	}
	p, body, err := e.openBlobVerified(id, blob, metadata.TypeDirnode, parent)
	if err != nil {
		return nil, 0, err
	}
	d, err := metadata.DecodeDirnodeBody(id, parent, body)
	if err != nil {
		return nil, 0, err
	}
	e.cache.put(id, storeVersion, p.Version, d, int64(len(body))+256)
	return d, p.Version, nil
}

// openBlobVerified opens already-fetched bytes with the rootkey and
// applies the traversal checks: expected type, expected UUID, expected
// parent (the file-swap defence, §IV-A3) and version freshness (§VI-C).
func (e *Enclave) openBlobVerified(id uuid.UUID, blob []byte, wantType metadata.ObjType, wantParent uuid.UUID) (metadata.Preamble, []byte, error) {
	return e.openBlobChecked(id, blob, wantType, &wantParent)
}

// openBlobChecked verifies a fetched blob; a nil wantParent skips the
// parent check (used for hardlinked filenodes).
func (e *Enclave) openBlobChecked(id uuid.UUID, blob []byte, wantType metadata.ObjType, wantParent *uuid.UUID) (metadata.Preamble, []byte, error) {
	p, body, err := metadata.Open(e.rootKey, blob)
	if err != nil {
		return metadata.Preamble{}, nil, fmt.Errorf("verifying %s %s: %w", wantType, id, err)
	}
	e.metrics.metadataLoads.Inc()
	if p.Type != wantType {
		return metadata.Preamble{}, nil, fmt.Errorf("%w: object %s is a %s, want %s",
			metadata.ErrTampered, id, p.Type, wantType)
	}
	if p.UUID != id {
		return metadata.Preamble{}, nil, fmt.Errorf("%w: object %s claims UUID %s",
			metadata.ErrTampered, id, p.UUID)
	}
	if wantParent != nil && p.Parent != *wantParent {
		return metadata.Preamble{}, nil, fmt.Errorf("%w: object %s has parent %s, want %s (file-swap defence)",
			metadata.ErrTampered, id, p.Parent, *wantParent)
	}
	if err := e.checkFreshnessLocked(id, p.Version); err != nil {
		return metadata.Preamble{}, nil, err
	}
	return p, body, nil
}

// tornError is a torn snapshot: an overflow bucket that is gone or does
// not match the main object's record, or a data object that is gone or
// fails against the filenode that named it. It is tagged with the
// directory whose copy named the bucket (nil for a data object), so the
// retry can tell a dirty shadow from a copy the next fetch replaces
// (ecall).
type tornError struct {
	dir uuid.UUID
	err error
}

func (t *tornError) Error() string { return t.err.Error() }
func (t *tornError) Unwrap() error { return t.err }

// bucketLoaderFor returns a loader that fetches, verifies (including the
// main dirnode's recorded MAC, §V-B) and decodes d's overflow buckets.
func (e *Enclave) bucketLoaderFor(d *metadata.Dirnode) func(i int) (*metadata.Bucket, error) {
	return func(i int) (*metadata.Bucket, error) {
		ref := d.Refs[i]
		blob, _, err := e.fetchObject(objName(ref.UUID))
		if isNotExist(err) {
			return nil, &tornError{dir: d.UUID, err: fmt.Errorf("fetching bucket %s of dirnode %s: %w: %w",
				ref.UUID, d.UUID, errBucketGone, err)}
		}
		if err != nil {
			return nil, fmt.Errorf("fetching bucket %s: %w", ref.UUID, err)
		}
		tag, err := metadata.Tag(blob)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(tag[:], ref.MAC[:]) {
			return nil, &tornError{dir: d.UUID, err: fmt.Errorf("%w: bucket %s of dirnode %s",
				metadata.ErrBucketMACMismatch, ref.UUID, d.UUID)}
		}
		_, body, err := e.openBlobVerified(ref.UUID, blob, metadata.TypeDirBucket, d.UUID)
		if err != nil {
			return nil, err
		}
		return metadata.DecodeBucketBody(body)
	}
}

// flushDirnodeLocked seals a dirnode at the given (already bumped)
// version and queues its uploads: its dirty overflow buckets, then its
// main object, which carries the ACL and bucket 0. A directory that has
// never overflowed bucket 0 is that one put, atomic by construction. Like
// every flush it commits nothing: the caller's commit takes its freshness
// records (DESIGN.md §12.4).
//
// Overflow-bucket writes are copy-on-write: a dirty bucket that already
// exists on the store is rewritten under another name, the main object
// (written last) references the new names, and the superseded objects
// live on until the *next* flush. Unlocked readers therefore always find
// a consistent (main, buckets) snapshot — either entirely old or
// entirely new — with no torn window between the two writes. The other
// name is one the previous flush retired, when there is one: the slot
// this flush would otherwise delete is overwritten instead, so a bucket
// alternates between two names and steady-state flushes create and
// delete nothing. Retired names no bucket claims are deleted.
//
// The flush is transactional with respect to the in-memory dirnode:
// every mutation — the Retired list, bucket renames, Refs/MAC updates,
// Dirty/OnStore flips, freshness bumps — is staged in locals and applied
// only after every upload has succeeded. A fault at any ocall leaves the
// in-memory state exactly as it was, so retrying the flush (same
// version) converges memory and store. The only residue of a failed
// attempt is a bucket object nothing references — under a fresh name or
// a retired one — which is invisible to readers of the current main
// object.
func (e *Enclave) flushDirnodeLocked(d *metadata.Dirnode, version uint64) error {
	// Phase 1: plan every upload. The staged Refs/Retired tables describe
	// the post-flush state without touching the dirnode yet.
	type bucketPlan struct {
		idx     int
		newUUID uuid.UUID
		blob    []byte
	}
	var plans []bucketPlan
	stagedRefs := make([]metadata.BucketRef, len(d.Refs))
	copy(stagedRefs, d.Refs)
	var stagedRetired []uuid.UUID
	// Any reader still using a name in d.Retired would be two main-object
	// generations behind, so those names are free to overwrite or delete.
	free := d.Retired
	for _, i := range d.DirtyBuckets() {
		b := d.Buckets[i]
		pl := bucketPlan{idx: i, newUUID: b.UUID}
		if b.OnStore {
			if len(free) > 0 {
				pl.newUUID, free = free[0], free[1:]
			} else {
				pl.newUUID = uuid.New()
			}
			stagedRetired = append(stagedRetired, b.UUID)
		}
		blob, err := metadata.Seal(e.rootKey, metadata.Preamble{
			Type:    metadata.TypeDirBucket,
			UUID:    pl.newUUID,
			Parent:  d.UUID,
			Version: version,
		}, b.EncodeBody())
		if err != nil {
			return fmt.Errorf("sealing bucket %s: %w", pl.newUUID, err)
		}
		tag, err := metadata.Tag(blob)
		if err != nil {
			return err
		}
		pl.blob = blob
		stagedRefs[i] = metadata.BucketRef{UUID: pl.newUUID, Count: d.Refs[i].Count, MAC: tag}
		plans = append(plans, pl)
	}

	// The main object is sealed from the staged tables: swap them in for
	// the encode only (EncodeBody is a pure read).
	savedRefs, savedRetired := d.Refs, d.Retired
	d.Refs, d.Retired = stagedRefs, stagedRetired
	body := d.EncodeBody()
	d.Refs, d.Retired = savedRefs, savedRetired
	mainBlob, err := metadata.Seal(e.rootKey, metadata.Preamble{
		Type:    metadata.TypeDirnode,
		UUID:    d.UUID,
		Parent:  d.Parent,
		Version: version,
	}, body)
	if err != nil {
		return fmt.Errorf("sealing dirnode %s: %w", d.UUID, err)
	}

	// Phase 2: delete the retired names left unclaimed. Deletion is
	// idempotent (missing objects are tolerated), so a failure later in
	// this flush can safely re-run it.
	freshUpdates := map[uuid.UUID]uint64{d.UUID: version}
	for _, old := range free {
		freshUpdates[old] = 0
		e.deleteObject(objName(old), nil, failing("deleting retired bucket"))
	}

	// Phase 3: upload buckets first, the main object last.
	for _, pl := range plans {
		freshUpdates[pl.newUUID] = version
		e.putObject(objName(pl.newUUID), pl.blob, nil, failing("uploading bucket"))
	}
	// Phase 4, once the main object is up: commit. Every upload succeeded;
	// apply the staged state. Any failure leaves it as it was and drops the
	// cached copy, which may carry the mutations being flushed.
	e.putObject(objName(d.UUID), mainBlob, freshUpdates, func(c *storeCall) error {
		if c.err != nil {
			e.cache.invalidate(d.UUID)
			return fmt.Errorf("uploading dirnode %s: %w", d.UUID, c.err)
		}
		for _, pl := range plans {
			b := d.Buckets[pl.idx]
			b.UUID = pl.newUUID
			b.Dirty = false
			b.OnStore = true
			e.metrics.metadataFlushes.Inc()
			e.metrics.metadataBytes.Add(int64(len(pl.blob)))
		}
		main := d.Buckets[0]
		main.UUID, main.Dirty, main.OnStore = uuid.Nil, false, false
		d.Refs, d.Retired = stagedRefs, stagedRetired
		e.metrics.metadataFlushes.Inc()
		e.metrics.metadataBytes.Add(int64(len(mainBlob)))
		e.cache.put(d.UUID, c.version, version, d, int64(len(body))+256)
		return nil
	})
	return nil
}

// loadFilenode returns the file metadata at id. The parent-UUID check
// applies only to singly linked files: a hardlinked filenode is
// legitimately reachable from several directories, so its preamble
// records the primary link's parent and the dirnode entry's UUID binding
// provides the remaining structure integrity.
func (e *Enclave) loadFilenode(id, parent uuid.UUID) (*metadata.Filenode, uint64, error) {
	// Pending write-back creates shadow the store (the object may not
	// exist there yet).
	if f, base, ok := e.dirtyFilenodeLocked(id); ok {
		if !f.Parent.IsNil() && f.Parent != parent {
			return nil, 0, fmt.Errorf("%w: filenode %s has parent %s, want %s (file-swap defence)",
				metadata.ErrTampered, id, f.Parent, parent)
		}
		e.keepUndoLocked(id)
		return f, base, nil
	}
	blob, storeVersion, err := e.fetchObject(objName(id))
	if err != nil {
		return nil, 0, fmt.Errorf("fetching filenode %s: %w", id, err)
	}
	if obj, objVersion, ok := e.cache.get(id, storeVersion, blob); ok {
		if f, ok := obj.(*metadata.Filenode); ok {
			if f.LinkCount > 1 || f.Parent.IsNil() || f.Parent == parent {
				e.metrics.metadataCacheHits.Inc()
				return f, objVersion, nil
			}
		}
	}
	p, body, err := e.openBlobChecked(id, blob, metadata.TypeFilenode, nil)
	if err != nil {
		return nil, 0, err
	}
	f, err := metadata.DecodeFilenodeBody(id, p.Parent, body)
	if err != nil {
		return nil, 0, err
	}
	if f.LinkCount <= 1 && !f.Parent.IsNil() && f.Parent != parent {
		return nil, 0, fmt.Errorf("%w: filenode %s has parent %s, want %s (file-swap defence)",
			metadata.ErrTampered, id, f.Parent, parent)
	}
	e.cache.put(id, storeVersion, p.Version, f, int64(len(body))+128)
	return f, p.Version, nil
}

// putFilenodeLocked seals a filenode at the given version and queues its
// upload, whose failure drops the cached copy.
func (e *Enclave) putFilenodeLocked(f *metadata.Filenode, version uint64) error {
	blob, err := metadata.Seal(e.rootKey, metadata.Preamble{
		Type:    metadata.TypeFilenode,
		UUID:    f.UUID,
		Parent:  f.Parent,
		Version: version,
	}, f.EncodeBody())
	if err != nil {
		return fmt.Errorf("sealing filenode %s: %w", f.UUID, err)
	}
	e.putObject(objName(f.UUID), blob, map[uuid.UUID]uint64{f.UUID: version}, func(c *storeCall) error {
		if c.err != nil {
			e.cache.invalidate(f.UUID)
			return fmt.Errorf("uploading filenode %s: %w", f.UUID, c.err)
		}
		e.metrics.metadataFlushes.Inc()
		e.metrics.metadataBytes.Add(int64(len(blob)))
		e.cache.put(f.UUID, c.version, version, f, int64(len(blob))+128)
		return nil
	})
	return nil
}
