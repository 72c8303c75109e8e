package enclave

import (
	"bytes"
	"fmt"
	"time"

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
}

type cacheEntry struct {
	// version is the store version the decode came from. It may be a
	// counter local to one adapter (vfs.VersionedStore), which a peer's put
	// through another adapter does not move — hence the second key below.
	version uint64
	// objVersion is the sealed preamble version of the cached object. A
	// hit requires the fetched bytes to carry it, and must report it — not
	// the freshness-map entry, which can be absent (pruned, or lost across
	// a remount) and would make the next flush restart at version 1 and
	// trip ErrStaleMetadata.
	objVersion uint64
	obj        any   // *metadata.Dirnode or *metadata.Filenode
	charged    int64 // EPC bytes charged
}

func newMetaCache(container *sgx.Enclave) *metaCache {
	return &metaCache{sgx: container, entries: make(map[uuid.UUID]*cacheEntry)}
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
	}
}

func (c *metaCache) clear() {
	for id := range c.entries {
		c.invalidate(id)
	}
}

// objName is the store name of a metadata or data object.
func objName(id uuid.UUID) string { return id.String() }

// timedOcall runs fn as an ocall, charging its wall time to the given
// meter (metadata vs data I/O, for the Table 5a/5b breakdowns: a
// cumulative ns counter plus a latency histogram). It is the single
// choke point for all store I/O, so storage-substrate faults
// (unreachable service, timeout, interrupted exchange) are classified
// here: they gain the ErrStoreUnavailable sentinel while keeping the
// backend sentinel in the chain.
func (e *Enclave) timedOcall(m ocallMeter, fn func() error) error {
	start := time.Now()
	err := e.sgx.Ocall(fn)
	elapsed := time.Since(start)
	m.ns.Add(int64(elapsed))
	m.lat.Record(elapsed)
	return classifyStoreError(err)
}

// classifyStoreError gives a storage-substrate fault the
// ErrStoreUnavailable sentinel (timedOcall).
func classifyStoreError(err error) error {
	if err != nil && backend.IsUnavailable(err) {
		return fmt.Errorf("%w: %w", ErrStoreUnavailable, err)
	}
	return err
}

// walkFetch is one store read a warm walk made ahead of use
// (prefetchWalkLocked): the object's name and what GetVersioned returned.
type walkFetch struct {
	name    string
	blob    []byte
	version uint64
	err     error
}

// dropWalkStashLocked discards the prefetched reads no walk consumed.
func (e *Enclave) dropWalkStashLocked() {
	e.metrics.prefetchDiscarded.Add(int64(len(e.walkStash)))
	e.walkStash = nil
}

// fetchObject retrieves raw object bytes through the ocall surface,
// charging the time to m: metaIO for metadata objects, dataIO for
// encrypted file contents. A read the current walk prefetched is served
// from the stash when it is the next one predicted; any other read means
// the walk left the prediction, and the rest of the stash is discarded.
func (e *Enclave) fetchObject(m ocallMeter, name string) ([]byte, uint64, error) {
	if len(e.walkStash) > 0 {
		if s := e.walkStash[0]; s.name == name {
			e.walkStash = e.walkStash[1:]
			e.metrics.prefetchUsed.Inc()
			return s.blob, s.version, s.err
		}
		e.dropWalkStashLocked()
	}
	var data []byte
	var version uint64
	err := e.timedOcall(m, func() error {
		var err error
		data, version, err = e.store.GetVersioned(name)
		return err
	})
	return data, version, err
}

// putObject uploads raw object bytes through the ocall surface, charging
// the time to m.
func (e *Enclave) putObject(m ocallMeter, name string, data []byte) (uint64, error) {
	var version uint64
	err := e.timedOcall(m, func() error {
		var err error
		version, err = e.store.PutVersioned(name, data)
		return err
	})
	return version, err
}

// deleteObject removes an object through the ocall surface.
func (e *Enclave) deleteObject(name string) error {
	return e.timedOcall(e.metrics.metaIO, func() error { return e.store.Delete(name) })
}

// lockObject acquires the store's advisory lock on an object. Reads made
// under a lock must follow it, so nothing prefetched before it survives.
func (e *Enclave) lockObject(name string) (func(), error) {
	e.dropWalkStashLocked()
	var release func()
	err := e.timedOcall(e.metrics.metaIO, func() error {
		var err error
		release, err = e.store.Lock(name)
		return err
	})
	if err != nil {
		return nil, err
	}
	return release, nil
}

// loadDirnode returns the directory at id, from the decrypted cache when
// the store version is unchanged.
func (e *Enclave) loadDirnode(id, parent uuid.UUID) (*metadata.Dirnode, uint64, error) {
	// A write-back dirty copy shadows both the cache and the store: it
	// carries mutations the store has not seen yet. The returned version
	// is the store version the copy derives from, so an eventual flush
	// at version+1 lines up with the on-store preamble.
	if d, base, ok := e.dirtyDirnodeLocked(id); ok {
		if d.Parent != parent {
			return nil, 0, fmt.Errorf("%w: dirnode %s has parent %s, want %s (file-swap defence)",
				metadata.ErrTampered, id, d.Parent, parent)
		}
		return d, base, nil
	}
	// Fetch is served by the AFS client cache (no network) when the
	// callback promise is intact; its version and the preamble's validate
	// the decrypted in-enclave copy, and the bytes are reused on a decode
	// miss.
	blob, storeVersion, err := e.fetchObject(e.metrics.metaIO, objName(id))
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
	e.noteSeenLocked(id, p.Version)
	return p, body, nil
}

// tornDirError is a torn directory snapshot — an overflow bucket that is
// gone or does not match the main object's record — tagged with the
// directory whose copy named the bucket, so the retry can tell a dirty
// shadow from a copy the next fetch replaces (retryTornEcall).
type tornDirError struct {
	dir uuid.UUID
	err error
}

func (t *tornDirError) Error() string { return t.err.Error() }
func (t *tornDirError) Unwrap() error { return t.err }

// bucketLoaderFor returns a loader that fetches, verifies (including the
// main dirnode's recorded MAC, §V-B) and decodes the buckets d keeps as
// separate objects: the overflow buckets, and bucket 0 of a directory
// still in the legacy layout.
func (e *Enclave) bucketLoaderFor(d *metadata.Dirnode) func(i int) (*metadata.Bucket, error) {
	return func(i int) (*metadata.Bucket, error) {
		ref := d.Refs[i]
		blob, _, err := e.fetchObject(e.metrics.metaIO, objName(ref.UUID))
		if isNotExist(err) {
			return nil, &tornDirError{dir: d.UUID, err: fmt.Errorf("fetching bucket %s of dirnode %s: %w: %w",
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
			return nil, &tornDirError{dir: d.UUID, err: fmt.Errorf("%w: bucket %s of dirnode %s",
				metadata.ErrBucketMACMismatch, ref.UUID, d.UUID)}
		}
		_, body, err := e.openBlobVerified(ref.UUID, blob, metadata.TypeDirBucket, d.UUID)
		if err != nil {
			return nil, err
		}
		return metadata.DecodeBucketBody(body)
	}
}

// flushDirnodeLocked seals and uploads a dirnode at the given (already
// bumped) version: its dirty overflow buckets, then its main object,
// which carries the ACL and bucket 0. A directory that has never
// overflowed bucket 0 is that one put, atomic by construction.
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
	if legacy := d.Refs[0].UUID; !legacy.IsNil() {
		// One-way migration: a legacy directory's bucket 0 is fetched once
		// more, sealed into the main object, and its own object retired.
		if err := d.LoadMain(e.bucketLoaderFor(d)); err != nil {
			return err
		}
		stagedRefs[0] = metadata.BucketRef{Count: d.Refs[0].Count}
		stagedRetired = append(stagedRetired, legacy)
	}
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
	for _, old := range free {
		if err := e.deleteObject(objName(old)); err != nil && !isNotExist(err) {
			return fmt.Errorf("deleting retired bucket %s: %w", old, err)
		}
	}

	// Phase 3: upload buckets first, the main object last.
	for _, pl := range plans {
		if _, err := e.putObject(e.metrics.metaIO, objName(pl.newUUID), pl.blob); err != nil {
			return fmt.Errorf("uploading bucket %s: %w", pl.newUUID, err)
		}
	}
	storeVersion, err := e.putObject(e.metrics.metaIO, objName(d.UUID), mainBlob)
	if err != nil {
		return fmt.Errorf("uploading dirnode %s: %w", d.UUID, err)
	}

	// Phase 4: commit. Every upload succeeded; apply the staged state.
	freshUpdates := map[uuid.UUID]uint64{d.UUID: version}
	for _, old := range free {
		freshUpdates[old] = 0
		delete(e.freshness, old)
	}
	for _, pl := range plans {
		b := d.Buckets[pl.idx]
		b.UUID = pl.newUUID
		b.Dirty = false
		b.OnStore = true
		e.noteSeenLocked(pl.newUUID, version)
		freshUpdates[pl.newUUID] = version
		e.metrics.metadataFlushes.Inc()
		e.metrics.metadataBytes.Add(int64(len(pl.blob)))
	}
	main := d.Buckets[0]
	main.UUID, main.Dirty, main.OnStore = uuid.Nil, false, false
	d.Refs, d.Retired = stagedRefs, stagedRetired
	e.noteSeenLocked(d.UUID, version)
	e.metrics.metadataFlushes.Inc()
	e.metrics.metadataBytes.Add(int64(len(mainBlob)))
	e.cache.put(d.UUID, storeVersion, version, d, int64(len(body))+256)
	return e.recordFreshnessLocked(freshUpdates)
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
		return f, base, nil
	}
	blob, storeVersion, err := e.fetchObject(e.metrics.metaIO, objName(id))
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

// flushFilenodeLocked seals and uploads a filenode at the given version.
func (e *Enclave) flushFilenodeLocked(f *metadata.Filenode, version uint64) error {
	if err := e.putFilenodeLocked(f, version); err != nil {
		return err
	}
	return e.recordFreshnessLocked(map[uuid.UUID]uint64{f.UUID: version})
}

// putFilenodeLocked is flushFilenodeLocked up to the freshness record: the
// filenode is on the store when it returns nil.
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
	storeVersion, err := e.putObject(e.metrics.metaIO, objName(f.UUID), blob)
	if err != nil {
		return fmt.Errorf("uploading filenode %s: %w", f.UUID, err)
	}
	e.noteSeenLocked(f.UUID, version)
	e.metrics.metadataFlushes.Inc()
	e.metrics.metadataBytes.Add(int64(len(blob)))
	e.cache.put(f.UUID, storeVersion, version, f, int64(len(blob))+128)
	return nil
}
