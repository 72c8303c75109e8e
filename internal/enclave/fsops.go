package enclave

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"nexus/internal/acl"
	"nexus/internal/backend"
	"nexus/internal/metadata"
	"nexus/internal/uuid"
)

// Stat describes a directory entry, returned by Lookup.
type Stat struct {
	Name string
	Kind metadata.EntryKind
	// Size is the plaintext size for files; zero otherwise.
	Size uint64
	// Links is the hardlink count for files.
	Links uint32
	// SymlinkTarget is set for symlinks.
	SymlinkTarget string
}

// splitPath normalizes a volume-relative path into its directory
// components and final name. The root is addressed as "/" or "".
func splitPath(path string) (dirs []string, base string, err error) {
	path = strings.Trim(path, "/")
	if path == "" {
		return nil, "", nil
	}
	parts := strings.Split(path, "/")
	for _, p := range parts {
		if p == "" || p == "." || p == ".." {
			return nil, "", fmt.Errorf("enclave: invalid path component %q", p)
		}
	}
	return parts[:len(parts)-1], parts[len(parts)-1], nil
}

// errBucketGone marks a dirnode bucket the store no longer holds. A
// superseded copy-on-write bucket survives exactly one later flush of
// its directory, which overwrites it or — when no dirty bucket claims
// its name — deletes it, so an unlocked reader that stalls between the
// dirnode fetch and the bucket fetch while the directory is flushed twice
// finds the bucket changed (ErrBucketMACMismatch) or gone.
var errBucketGone = errors.New("enclave: directory bucket gone from the store")

// retryTornEcall runs an operation, retrying briefly when it observes a
// torn directory snapshot: an overflow bucket whose MAC does not match
// the main object's record, or one that is gone. Writers flush a
// dirnode's dirty overflow buckets and then its main object as separate
// store writes, and the storage layer's invalidations propagate per
// object, so an unlocked reader can transiently see a fresh bucket
// against a stale main object, or outlive the buckets of the main object
// it fetched. Either way the store already holds a newer main object,
// which the retried walk fetches — unless the copy that named the bucket
// is this enclave's own dirty write-back shadow, which every walk would
// return again: that one is re-based on the store's main object first.
// (A directory that fits bucket 0 is one object and cannot tear.) The
// mutation paths take the store lock before changing anything, so such
// an error always precedes any side effect and the whole operation is
// safe to retry. A *persistent* mismatch or absence is the real signal —
// a rolled back, substituted or withheld bucket (§V-B) — and is surfaced
// after the bounded retries.
//
// Storage-substrate faults (ErrStoreUnavailable) are deliberately NOT
// retried here: idempotent-RPC retry lives in the AFS client, and a
// mutating operation that died with unknown outcome must surface so the
// caller can re-validate instead of blindly re-running the ecall.
func (e *Enclave) retryTornEcall(fn func() error) error {
	for attempt := 0; ; attempt++ {
		err := e.sgx.Ecall(fn)
		var torn *tornDirError
		if err == nil || attempt >= 3 || !errors.As(err, &torn) {
			return err
		}
		// Give the lagging invalidation a moment to land.
		time.Sleep(time.Duration(attempt+1) * time.Millisecond)
		if rerr := e.sgx.Ecall(func() error {
			e.mu.Lock()
			defer e.mu.Unlock()
			n, ok := e.wb.nodes[torn.dir]
			if !ok || n.dir == nil || n.isNew {
				return nil
			}
			return e.rebaseDirtyDirnodeLocked(torn.dir, n)
		}); rerr != nil && !errors.As(rerr, &torn) {
			return rerr
		}
	}
}

// walkResult carries a resolved directory and its current metadata
// version (used for version bumps on flush).
type walkResult struct {
	dir     *metadata.Dirnode
	version uint64
}

// walkDirLocked resolves a directory path from the volume root, applying
// the Lookup right and parent-UUID validation at each step (§IV-A3).
func (e *Enclave) walkDirLocked(dirs []string) (walkResult, error) {
	cur, version, err := e.loadDirnode(e.super.RootDir, e.super.VolumeUUID)
	if err != nil {
		return walkResult{}, fmt.Errorf("loading root directory: %w", err)
	}
	for i, name := range dirs {
		if err := e.checkACLLocked(cur, acl.Lookup); err != nil {
			return walkResult{}, fmt.Errorf("traversing %q: %w", strings.Join(dirs[:i+1], "/"), err)
		}
		entry, err := cur.Lookup(name, e.bucketLoaderFor(cur))
		if err != nil {
			if errors.Is(err, metadata.ErrEntryNotFound) {
				return walkResult{}, fmt.Errorf("%w: %s", ErrNotFound, strings.Join(dirs[:i+1], "/"))
			}
			return walkResult{}, err
		}
		if entry.Kind != metadata.KindDir {
			return walkResult{}, fmt.Errorf("%w: %s", ErrNotDir, strings.Join(dirs[:i+1], "/"))
		}
		next, v, err := e.loadDirnode(entry.UUID, cur.UUID)
		if err != nil {
			return walkResult{}, err
		}
		cur, version = next, v
	}
	return walkResult{dir: cur, version: version}, nil
}

// errNotResident stops a prediction at a directory bucket the enclave
// does not hold.
var errNotResident = errors.New("enclave: bucket not resident")

// prefetchWalkLocked makes, in one ocall, the store reads a walk of dirs
// will make — and then of leaf, a file reached with leafRight on its
// directory, when leaf is not empty — so that the walk's revalidations
// cost no further enclave exits (DESIGN.md §11.5). The reads are the
// walk's own, in its order; fetchObject hands them out and every check
// after the fetch is unchanged. The caller drops the stash when its ecall
// ends (dropWalkStashLocked).
func (e *Enclave) prefetchWalkLocked(dirs []string, leaf string, leafRight acl.Rights) {
	names := e.predictWalkLocked(dirs, leaf, leafRight)
	if len(names) == 0 {
		return
	}
	stash := make([]walkFetch, 0, len(names))
	if err := e.timedOcall(e.metrics.metaIO, func() error {
		for _, name := range names {
			blob, version, err := e.store.GetVersioned(name)
			stash = append(stash, walkFetch{name: name, blob: blob, version: version, err: classifyStoreError(err)})
			if err != nil {
				break // the walk stops at its first failed read
			}
		}
		return nil
	}); err != nil {
		return
	}
	e.walkStash = stash
}

// predictWalkLocked names the objects a walk will fetch, judged from the
// decrypted cache and the dirty set alone: the root dirnode, each
// directory on the path and the leaf's filenode, less the dirty copies,
// which shadow the store. It follows only entries in resident buckets of
// directories whose ACL grants the walk's right, and it ends with the
// first object the cache does not hold, so it names no object the walk
// would not fetch from the copies it has.
func (e *Enclave) predictWalkLocked(dirs []string, leaf string, leafRight acl.Rights) []string {
	var names []string
	next := func(id uuid.UUID) *metadata.Dirnode {
		if d, _, ok := e.dirtyDirnodeLocked(id); ok {
			return d
		}
		names = append(names, objName(id))
		if c, ok := e.cache.entries[id]; ok {
			d, _ := c.obj.(*metadata.Dirnode)
			return d
		}
		return nil
	}
	notResident := func(int) (*metadata.Bucket, error) { return nil, errNotResident }
	cur := next(e.super.RootDir)
	for _, name := range dirs {
		if cur == nil || e.checkACLLocked(cur, acl.Lookup) != nil {
			return names
		}
		entry, err := cur.Lookup(name, notResident)
		if err != nil || entry.Kind != metadata.KindDir {
			return names
		}
		cur = next(entry.UUID)
	}
	if leaf == "" || cur == nil || e.checkACLLocked(cur, leafRight) != nil {
		return names
	}
	entry, err := cur.Lookup(leaf, notResident)
	if err != nil || entry.Kind != metadata.KindFile {
		return names
	}
	if _, _, dirty := e.dirtyFilenodeLocked(entry.UUID); !dirty {
		names = append(names, objName(entry.UUID))
	}
	return names
}

// checkACLLocked enforces the directory's ACL for the authenticated user
// (default deny, owner override; §IV-C). Group entries resolve through
// the membership key tree: a grant to the user's leaf subgroup counts
// toward the requested rights.
func (e *Enclave) checkACLLocked(d *metadata.Dirnode, want acl.Rights) error {
	var groups []uint32
	if tree := e.groupTreeLocked(); tree != nil {
		groups = tree.GroupsOf(e.user.ID)
	}
	if d.ACL.CheckGroups(e.user.ID, e.isOwnerLocked(), groups, want) {
		return nil
	}
	have := d.ACL.ResolveRights(e.user.ID, groups)
	return fmt.Errorf("%w: user %q needs %s on directory, has %s",
		ErrAccessDenied, e.user.Name, want, have)
}

// createEntry is the shared implementation of Touch, Mkdir and Symlink.
func (e *Enclave) createEntry(path string, kind metadata.EntryKind, symlinkTarget string) error {
	return e.retryTornEcall(func() error {
		e.mu.Lock()
		defer e.mu.Unlock()
		if err := e.requireAuthLocked(); err != nil {
			return err
		}
		dirs, name, err := splitPath(path)
		if err != nil {
			return err
		}
		if name == "" {
			return fmt.Errorf("%w: cannot create the volume root", ErrExists)
		}
		w, err := e.walkDirLocked(dirs)
		if err != nil {
			return err
		}
		if err := e.checkACLLocked(w.dir, acl.Insert); err != nil {
			return err
		}
		return e.createEntryWritebackLocked(w, path, name, kind, symlinkTarget)
	})
}

// Touch creates an empty file (nexus_fs_touch for files).
func (e *Enclave) Touch(path string) error {
	return e.createEntry(path, metadata.KindFile, "")
}

// Mkdir creates a directory (nexus_fs_touch for directories).
func (e *Enclave) Mkdir(path string) error {
	return e.createEntry(path, metadata.KindDir, "")
}

// Symlink creates a symbolic link at linkPath pointing to target
// (nexus_fs_symlink). The target is stored, encrypted, in the dirnode
// and is not resolved or validated.
func (e *Enclave) Symlink(target, linkPath string) error {
	if target == "" {
		return fmt.Errorf("enclave: empty symlink target")
	}
	return e.createEntry(linkPath, metadata.KindSymlink, target)
}

// Remove deletes a file, symlink, or empty directory (nexus_fs_remove).
func (e *Enclave) Remove(path string) error {
	return e.retryTornEcall(func() error {
		e.mu.Lock()
		defer e.mu.Unlock()
		if err := e.requireAuthLocked(); err != nil {
			return err
		}
		dirs, name, err := splitPath(path)
		if err != nil {
			return err
		}
		if name == "" {
			return fmt.Errorf("enclave: cannot remove the volume root")
		}
		w, err := e.walkDirLocked(dirs)
		if err != nil {
			return err
		}
		if err := e.checkACLLocked(w.dir, acl.Delete); err != nil {
			return err
		}
		return e.removeWritebackLocked(w, path, name)
	})
}

// isNotExist reports whether a store error means the object is absent.
// Every ObjectStore returns the typed sentinel for that; the text of an
// error is the store's to choose and proves nothing.
func isNotExist(err error) bool {
	return errors.Is(err, backend.ErrNotExist)
}

// Lookup finds an entry by path and returns its attributes
// (nexus_fs_lookup).
func (e *Enclave) Lookup(path string) (Stat, error) {
	var st Stat
	err := e.retryTornEcall(func() error {
		e.mu.Lock()
		defer e.mu.Unlock()
		if err := e.requireAuthLocked(); err != nil {
			return err
		}
		dirs, name, err := splitPath(path)
		if err != nil {
			return err
		}
		e.prefetchWalkLocked(dirs, name, acl.Lookup)
		defer e.dropWalkStashLocked()
		if name == "" {
			st = Stat{Name: "/", Kind: metadata.KindDir}
			_, err := e.walkDirLocked(nil)
			return err
		}
		w, err := e.walkDirLocked(dirs)
		if err != nil {
			return err
		}
		if err := e.checkACLLocked(w.dir, acl.Lookup); err != nil {
			return err
		}
		entry, err := w.dir.Lookup(name, e.bucketLoaderFor(w.dir))
		if err != nil {
			if errors.Is(err, metadata.ErrEntryNotFound) {
				return fmt.Errorf("%w: %s", ErrNotFound, path)
			}
			return err
		}
		st = Stat{Name: entry.Name, Kind: entry.Kind, SymlinkTarget: entry.SymlinkTarget}
		if entry.Kind == metadata.KindFile {
			f, _, err := e.loadFilenode(entry.UUID, w.dir.UUID)
			if err != nil {
				return err
			}
			st.Size = f.Size
			st.Links = f.LinkCount
		}
		return nil
	})
	if err != nil {
		return Stat{}, err
	}
	return st, nil
}

// Filldir lists a directory's entries sorted by name (nexus_fs_filldir).
func (e *Enclave) Filldir(path string) ([]Stat, error) {
	var out []Stat
	err := e.retryTornEcall(func() error {
		e.mu.Lock()
		defer e.mu.Unlock()
		if err := e.requireAuthLocked(); err != nil {
			return err
		}
		dirs, name, err := splitPath(path)
		if err != nil {
			return err
		}
		if name != "" {
			dirs = append(dirs, name)
		}
		e.prefetchWalkLocked(dirs, "", 0)
		defer e.dropWalkStashLocked()
		w, err := e.walkDirLocked(dirs)
		if err != nil {
			return err
		}
		if err := e.checkACLLocked(w.dir, acl.Lookup); err != nil {
			return err
		}
		entries, err := w.dir.List(e.bucketLoaderFor(w.dir))
		if err != nil {
			return err
		}
		out = make([]Stat, 0, len(entries))
		for _, entry := range entries {
			out = append(out, Stat{
				Name:          entry.Name,
				Kind:          entry.Kind,
				SymlinkTarget: entry.SymlinkTarget,
			})
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Hardlink creates newPath as an additional name for the existing file
// (nexus_fs_hardlink). Directories cannot be hardlinked.
func (e *Enclave) Hardlink(existingPath, newPath string) error {
	return e.retryTornEcall(func() error {
		e.mu.Lock()
		defer e.mu.Unlock()
		if err := e.requireAuthLocked(); err != nil {
			return err
		}
		// Hardlink spans two directories and mutates a shared link
		// count; it runs eagerly on a drained set, as one commit that
		// also holds the filenode's lock.
		if err := e.drainWithRetryLocked(); err != nil {
			return err
		}
		return e.hardlinkLocked(existingPath, newPath)
	})
}

// hardlinkLocked is the body of Hardlink, on a drained dirty set.
func (e *Enclave) hardlinkLocked(existingPath, newPath string) error {
	srcDirs, srcName, err := splitPath(existingPath)
	if err != nil {
		return err
	}
	dstDirs, dstName, err := splitPath(newPath)
	if err != nil {
		return err
	}
	if srcName == "" || dstName == "" {
		return fmt.Errorf("%w: hardlink involving the volume root", ErrNotFile)
	}

	var srcW, dstW walkResult
	var entry metadata.DirEntry
	resolve := func() ([]uuid.UUID, error) {
		if srcW, err = e.walkDirLocked(srcDirs); err != nil {
			return nil, err
		}
		if err := e.checkACLLocked(srcW.dir, acl.Lookup); err != nil {
			return nil, err
		}
		if dstW, err = e.walkDirLocked(dstDirs); err != nil {
			return nil, err
		}
		if err := e.checkACLLocked(dstW.dir, acl.Insert); err != nil {
			return nil, err
		}
		if entry, err = e.lookupEntryLocked(srcW.dir, srcName, existingPath); err != nil {
			return nil, err
		}
		if entry.Kind != metadata.KindFile {
			return nil, fmt.Errorf("%w: %s", ErrNotFile, existingPath)
		}
		return []uuid.UUID{entry.UUID}, nil
	}
	return e.commitFilesLocked(resolve, func() error {
		f, fv, err := e.loadFilenode(entry.UUID, srcW.dir.UUID)
		if err != nil {
			return err
		}
		newEntry := metadata.DirEntry{Name: dstName, UUID: entry.UUID, Kind: metadata.KindFile}
		if err := dstW.dir.Insert(newEntry, e.bucketLoaderFor(dstW.dir)); err != nil {
			if errors.Is(err, metadata.ErrEntryExists) {
				return fmt.Errorf("%w: %s", ErrExists, newPath)
			}
			return err
		}
		f.LinkCount++
		if err := e.flushFilenodeLocked(f, fv+1); err != nil {
			e.cache.invalidate(f.UUID)
			e.cache.invalidate(dstW.dir.UUID)
			return err
		}
		if err := e.flushDirnodeLocked(dstW.dir, dstW.version+1); err != nil {
			e.cache.invalidate(dstW.dir.UUID)
			return err
		}
		return nil
	})
}

// lookupEntryLocked finds name in d; path names it in the error.
func (e *Enclave) lookupEntryLocked(d *metadata.Dirnode, name, path string) (metadata.DirEntry, error) {
	entry, err := d.Lookup(name, e.bucketLoaderFor(d))
	if errors.Is(err, metadata.ErrEntryNotFound) {
		return entry, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	return entry, err
}

// errRelock reports a commit whose filenodes changed between the
// unlocked walk that chose their locks and the walk under the root lock.
var errRelock = errors.New("enclave: entry changed while its file lock was taken")

// commitFilesLocked is a commit that also rewrites filenodes. Their locks
// pair a data object with its filenode (WriteFile), so they stay, under
// one order rule: an operation takes every filenode lock it needs before
// the root lock, and never while holding it. resolve walks — unlocked
// first — and returns, sorted, the filenodes the commit rewrites; their
// locks are taken, then the root lock, and resolve walks again under it.
// fn runs if that second walk names the same filenodes; if not, everything
// is released and the sequence restarts, a bounded number of times.
func (e *Enclave) commitFilesLocked(resolve func() ([]uuid.UUID, error), fn func() error) error {
	for attempt := 0; ; attempt++ {
		ids, err := resolve()
		if err != nil {
			return err
		}
		var releases []func()
		for _, id := range ids {
			var release func()
			if release, err = e.lockObject(objName(id)); err != nil {
				err = fmt.Errorf("locking filenode: %w", err)
				break
			}
			releases = append(releases, release)
		}
		if err == nil {
			err = e.commitLocked(func() error {
				again, err := resolve()
				if err != nil {
					return err
				}
				if !slices.Equal(again, ids) {
					return errRelock
				}
				return fn()
			})
		}
		for i := len(releases) - 1; i >= 0; i-- {
			releases[i]()
		}
		if !errors.Is(err, errRelock) || attempt == 3 {
			return err
		}
	}
}

// Rename moves a file, symlink, or directory to a new path
// (nexus_fs_rename). An existing file or symlink at the destination is
// replaced; an existing directory is an error.
func (e *Enclave) Rename(oldPath, newPath string) error {
	return e.retryTornEcall(func() error {
		e.mu.Lock()
		defer e.mu.Unlock()
		if err := e.requireAuthLocked(); err != nil {
			return err
		}
		// Rename spans two directories (with replace semantics); it runs
		// eagerly on a drained set, as one commit that also holds the
		// lock of each filenode it rewrites: a file moved to another
		// directory (re-parented) and a file it replaces.
		if err := e.drainWithRetryLocked(); err != nil {
			return err
		}
		return e.renameLocked(oldPath, newPath)
	})
}

// renameLocked is the body of Rename, on a drained dirty set.
func (e *Enclave) renameLocked(oldPath, newPath string) error {
	srcDirs, srcName, err := splitPath(oldPath)
	if err != nil {
		return err
	}
	dstDirs, dstName, err := splitPath(newPath)
	if err != nil {
		return err
	}
	if srcName == "" || dstName == "" {
		return fmt.Errorf("enclave: cannot rename the volume root")
	}

	var srcW, dstW walkResult
	var entry, existing metadata.DirEntry
	var sameDir, replaces bool
	resolve := func() ([]uuid.UUID, error) {
		if srcW, err = e.walkDirLocked(srcDirs); err != nil {
			return nil, err
		}
		if err := e.checkACLLocked(srcW.dir, acl.Delete); err != nil {
			return nil, err
		}
		if dstW = srcW; !slices.Equal(srcDirs, dstDirs) {
			if dstW, err = e.walkDirLocked(dstDirs); err != nil {
				return nil, err
			}
		}
		if err := e.checkACLLocked(dstW.dir, acl.Insert); err != nil {
			return nil, err
		}
		sameDir = srcW.dir.UUID == dstW.dir.UUID
		if entry, err = e.lookupEntryLocked(srcW.dir, srcName, oldPath); err != nil {
			return nil, err
		}
		existing, err = dstW.dir.Lookup(dstName, e.bucketLoaderFor(dstW.dir))
		if replaces = err == nil; err != nil && !errors.Is(err, metadata.ErrEntryNotFound) {
			return nil, err
		}
		var ids []uuid.UUID
		if entry.Kind == metadata.KindFile && !sameDir {
			ids = append(ids, entry.UUID)
		}
		if replaces && existing.Kind == metadata.KindFile && !slices.Contains(ids, existing.UUID) {
			ids = append(ids, existing.UUID)
		}
		sortUUIDs(ids)
		return ids, nil
	}
	return e.commitFilesLocked(resolve, func() error {
		// Replace semantics at the destination.
		if replaces {
			if existing.UUID == entry.UUID && sameDir && srcName == dstName {
				return nil // rename onto itself
			}
			switch existing.Kind {
			case metadata.KindDir:
				return fmt.Errorf("%w: destination %s is a directory", ErrExists, newPath)
			case metadata.KindFile:
				if err := e.removeFileEntryLocked(dstW.dir, existing); err != nil {
					return err
				}
			case metadata.KindSymlink:
			}
			if _, err := dstW.dir.Remove(dstName, e.bucketLoaderFor(dstW.dir)); err != nil {
				return err
			}
		}

		if _, err := srcW.dir.Remove(srcName, e.bucketLoaderFor(srcW.dir)); err != nil {
			return err
		}
		moved := entry
		moved.Name = dstName
		if err := dstW.dir.Insert(moved, e.bucketLoaderFor(dstW.dir)); err != nil {
			return err
		}

		// Moving across directories re-parents the child's metadata so
		// the file-swap defence keeps holding (§IV-A3).
		if !sameDir {
			switch entry.Kind {
			case metadata.KindDir:
				child, cv, err := e.loadDirnode(entry.UUID, srcW.dir.UUID)
				if err != nil {
					return err
				}
				child.Parent = dstW.dir.UUID
				if err := e.flushDirnodeLocked(child, cv+1); err != nil {
					e.cache.invalidate(child.UUID)
					return err
				}
			case metadata.KindFile:
				f, fv, err := e.loadFilenode(entry.UUID, srcW.dir.UUID)
				if err != nil {
					return err
				}
				// Multi-link files already carry no parent binding.
				if f.LinkCount <= 1 && !f.Parent.IsNil() {
					f.Parent = dstW.dir.UUID
					if err := e.flushFilenodeLocked(f, fv+1); err != nil {
						e.cache.invalidate(f.UUID)
						return err
					}
				}
			case metadata.KindSymlink:
			}
		}

		if err := e.flushDirnodeLocked(srcW.dir, srcW.version+1); err != nil {
			e.cache.invalidate(srcW.dir.UUID)
			return err
		}
		if !sameDir {
			if err := e.flushDirnodeLocked(dstW.dir, dstW.version+1); err != nil {
				e.cache.invalidate(dstW.dir.UUID)
				return err
			}
		}
		return nil
	})
}

// removeFileEntryLocked drops a file's storage when its entry is being
// replaced (helper for Rename's overwrite case, which holds the
// filenode's lock).
func (e *Enclave) removeFileEntryLocked(dir *metadata.Dirnode, entry metadata.DirEntry) error {
	f, fv, err := e.loadFilenode(entry.UUID, dir.UUID)
	if err != nil {
		return err
	}
	if f.LinkCount > 1 {
		f.LinkCount--
		f.Parent = uuid.Nil
		return e.flushFilenodeLocked(f, fv+1)
	}
	if f.HasDataObject() {
		if err := e.deleteObject(objName(f.DataUUID)); err != nil && !isNotExist(err) {
			return err
		}
	}
	if err := e.deleteObject(objName(entry.UUID)); err != nil {
		return err
	}
	e.cache.invalidate(entry.UUID)
	return nil
}

// streamPutCutoff is the write size from which WriteFile pipelines
// encryption into the upload on stream-capable stores. A streamed put
// costs one network write per sealed segment where the assembled put
// costs one in all; below ~4 MiB the crypto time worth hiding is smaller
// than that extra per-segment latency.
const streamPutCutoff = 4 << 20

// encryptAndPutLocked seals data under f's freshly rotated contexts and
// uploads the sealed blob to f's data object. On stream-capable stores,
// writes at or above the streaming cutoff overlap chunk sealing with the
// upload.
func (e *Enclave) encryptAndPutLocked(f *metadata.Filenode, data []byte) error {
	name := objName(f.DataUUID)
	sealedLen := f.SealedSize(len(data))
	sealed := make([]byte, sealedLen)

	if ss, ok := e.store.(StreamObjectStore); ok && len(data) >= streamPutCutoff {
		if err := e.streamPutLocked(ss, f, sealed, data, name); err != nil {
			return err
		}
		e.metrics.dataBytes.Add(int64(sealedLen))
		return nil
	}

	blob, err := e.timedChunkCrypto(len(data), func() ([]byte, error) {
		return f.EncryptContentInto(sealed, data, 0)
	})
	if err != nil {
		return err
	}
	if _, err := e.putObject(e.metrics.dataIO, name, blob); err != nil {
		return fmt.Errorf("uploading data object: %w", err)
	}
	e.metrics.dataBytes.Add(int64(len(blob)))
	return nil
}

// streamPutLocked runs the encrypt-while-upload pipeline: workers seal
// chunks into dst while the store drains the completed prefix through
// the stream put. The chunk-crypto histogram records the sealing time
// alone (the stream stamps it when the last chunk lands), so streamed
// writes don't pollute the crypto latency distribution with network
// time; the surrounding ocall meter captures the fused transfer.
func (e *Enclave) streamPutLocked(ss StreamObjectStore, f *metadata.Filenode, dst, data []byte, name string) error {
	var chunks int64
	if cs := int64(e.cfg.ChunkSize); len(data) > 0 && cs > 0 {
		chunks = (int64(len(data)) + cs - 1) / cs
	}
	span := e.metrics.tracer.Begin("enclave.chunkcrypto")
	span.SetTagInt("chunks", chunks)
	span.SetTagInt("streamed", 1)
	defer span.End()

	stream, err := f.EncryptContentStream(dst, data, 0)
	if err != nil {
		return err
	}
	putErr := e.timedOcall(e.metrics.dataIO, func() error {
		_, err := ss.PutVersionedStream(name, f.SealedSize(len(data)), stream.Next)
		return err
	})
	// Always wait out the sealing workers, even when the upload failed:
	// a sealing error must surface, and the workers are still writing
	// f's chunk tags.
	sealErr := stream.Wait()
	e.metrics.chunkLat.Record(stream.CryptoDuration())
	e.metrics.chunks.Add(chunks)
	if sealErr != nil {
		return sealErr
	}
	if putErr != nil {
		return fmt.Errorf("uploading data object: %w", putErr)
	}
	return nil
}

// timedChunkCrypto meters one pass of the chunk-crypto pipeline: a
// span tagged with chunk count, the cumulative chunk counter, and the
// pipeline latency histogram. plainLen is the plaintext length the
// pipeline processes (the write payload, or the filenode size on
// reads).
func (e *Enclave) timedChunkCrypto(plainLen int, fn func() ([]byte, error)) ([]byte, error) {
	var chunks int64
	if cs := int64(e.cfg.ChunkSize); plainLen > 0 && cs > 0 {
		chunks = (int64(plainLen) + cs - 1) / cs
	}
	span := e.metrics.tracer.Begin("enclave.chunkcrypto")
	span.SetTagInt("chunks", chunks)
	start := time.Now()
	out, err := fn()
	e.metrics.chunkLat.Record(time.Since(start))
	e.metrics.chunks.Add(chunks)
	span.End()
	return out, err
}

// writeContentLocked returns a copy of f holding data: inline when it
// fits, else re-encrypted chunk by chunk under fresh keys into the data
// object, which it uploads. f itself is left as it was, so a failed upload
// changes nothing the next flush could seal.
func (e *Enclave) writeContentLocked(f *metadata.Filenode, data []byte) (*metadata.Filenode, error) {
	next := f.Clone()
	if len(data) <= metadata.MaxInlineSize {
		next.SetInline(data)
		return next, nil
	}
	if !f.HasDataObject() {
		// A fresh name: a delete staged for a data object this file had
		// before it went inline must not reach the new one.
		next.DataUUID = uuid.New()
	}
	if err := e.encryptAndPutLocked(next, data); err != nil {
		return nil, err
	}
	return next, nil
}

// WriteFile replaces a file's contents (nexus_fs_encrypt) and re-seals its
// filenode. Content of at most metadata.MaxInlineSize bytes is sealed in
// the filenode itself; larger content goes to the data object, every chunk
// re-encrypted with fresh keys. A data object the new content no longer
// uses is deleted at the next drain.
func (e *Enclave) WriteFile(path string, data []byte) error {
	return e.retryTornEcall(func() error {
		e.mu.Lock()
		defer e.mu.Unlock()
		if err := e.requireAuthLocked(); err != nil {
			return err
		}
		dirs, name, err := splitPath(path)
		if err != nil {
			return err
		}
		if name == "" {
			return fmt.Errorf("%w: %s", ErrNotFile, path)
		}
		w, err := e.walkDirLocked(dirs)
		if err != nil {
			return err
		}
		if err := e.checkACLLocked(w.dir, acl.Write); err != nil {
			return err
		}
		entry, err := w.dir.Lookup(name, e.bucketLoaderFor(w.dir))
		if err != nil {
			if errors.Is(err, metadata.ErrEntryNotFound) {
				return fmt.Errorf("%w: %s", ErrNotFound, path)
			}
			return err
		}
		if entry.Kind != metadata.KindFile {
			return fmt.Errorf("%w: %s", ErrNotFile, path)
		}

		// A write to a still-pending created file replaces the in-memory
		// filenode and uploads at most the data object; the filenode rides
		// out with the next batch drain. No store lock: the object does not
		// exist on the store yet, so no other client can race on it. Writes
		// to on-store files stay fully eager — their filenode seals carry
		// freshly rotated keys that must not sit deferred in enclave memory.
		if n, ok := e.wb.nodes[entry.UUID]; ok && n.file != nil {
			next, err := e.writeContentLocked(n.file, data)
			if err != nil {
				return err
			}
			if n.file.HasDataObject() && !next.HasDataObject() {
				e.stageDeleteLocked(n.file.DataUUID, false)
			}
			e.setDirtyFilenodeLocked(n, next)
			return e.maybeDrainLocked()
		}

		release, err := e.lockObject(objName(entry.UUID))
		if err != nil {
			return fmt.Errorf("locking filenode: %w", err)
		}
		defer release()

		f, fv, err := e.loadFilenode(entry.UUID, w.dir.UUID)
		if err != nil {
			return err
		}
		next, err := e.writeContentLocked(f, data)
		if err != nil {
			return err
		}
		if err := e.putFilenodeLocked(next, fv+1); err != nil {
			e.cache.invalidate(f.UUID)
			return err
		}
		// Only now does no filenode on the store name the old data object.
		if f.HasDataObject() && !next.HasDataObject() {
			e.stageDeleteLocked(f.DataUUID, false)
		}
		if err := e.recordFreshnessLocked(map[uuid.UUID]uint64{f.UUID: fv + 1}); err != nil {
			return err
		}
		return e.maybeDrainLocked()
	})
}

// ReadFile returns a file's decrypted contents (nexus_fs_decrypt) after
// the Read ACL check.
func (e *Enclave) ReadFile(path string) ([]byte, error) {
	var out []byte
	err := e.retryTornEcall(func() error {
		e.mu.Lock()
		defer e.mu.Unlock()
		if err := e.requireAuthLocked(); err != nil {
			return err
		}
		dirs, name, err := splitPath(path)
		if err != nil {
			return err
		}
		if name == "" {
			return fmt.Errorf("%w: %s", ErrNotFile, path)
		}
		e.prefetchWalkLocked(dirs, name, acl.Read)
		defer e.dropWalkStashLocked()
		w, err := e.walkDirLocked(dirs)
		if err != nil {
			return err
		}
		if err := e.checkACLLocked(w.dir, acl.Read); err != nil {
			return err
		}
		entry, err := w.dir.Lookup(name, e.bucketLoaderFor(w.dir))
		if err != nil {
			if errors.Is(err, metadata.ErrEntryNotFound) {
				return fmt.Errorf("%w: %s", ErrNotFound, path)
			}
			return err
		}
		if entry.Kind != metadata.KindFile {
			return fmt.Errorf("%w: %s", ErrNotFile, path)
		}
		f, _, err := e.loadFilenode(entry.UUID, w.dir.UUID)
		if err != nil {
			return err
		}
		if !f.HasDataObject() {
			out = append([]byte{}, f.Inline...)
			return nil
		}
		blob, _, err := e.fetchObject(e.metrics.dataIO, objName(f.DataUUID))
		if err != nil {
			return fmt.Errorf("fetching data object: %w", err)
		}
		out, err = e.timedChunkCrypto(int(f.Size), func() ([]byte, error) {
			return f.DecryptContent(blob)
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SetACL grants (or with acl.None revokes) a user's rights on a
// directory. Only the owner or a user holding Administer on the
// directory may change its ACL; the update re-encrypts one metadata
// object, which is the paper's entire revocation cost (§VII-E).
func (e *Enclave) SetACL(dirPath, userName string, rights acl.Rights) error {
	return e.retryTornEcall(func() error {
		e.mu.Lock()
		defer e.mu.Unlock()
		return e.setACLEntryLocked(dirPath, rights, func() (uint32, error) {
			target, err := e.super.FindUserByName(userName)
			return target.ID, err
		})
	})
}

// setACLEntryLocked is the body of SetACL and SetGroupACL: it sets the
// rights of the ACL key that subject resolves (a user ID or a group
// entry ID; called once the caller is authorized) on a directory and
// re-seals the directory, walking to it inside the commit so the change
// applies to the freshest version.
func (e *Enclave) setACLEntryLocked(dirPath string, rights acl.Rights, subject func() (uint32, error)) error {
	if err := e.requireAuthLocked(); err != nil {
		return err
	}
	// Revocation must not leave any pre-revocation metadata pending:
	// drain first, then re-seal the directory eagerly (§VII-E).
	if err := e.drainWithRetryLocked(); err != nil {
		return err
	}
	dirs, base, err := splitPath(dirPath)
	if err != nil {
		return err
	}
	if base != "" {
		dirs = append(dirs, base)
	}
	return e.commitLocked(func() error {
		w, err := e.walkDirLocked(dirs)
		if err != nil {
			return err
		}
		if !e.isOwnerLocked() {
			if err := e.checkACLLocked(w.dir, acl.Administer); err != nil {
				return err
			}
		}
		key, err := subject()
		if err != nil {
			return err
		}
		w.dir.ACL.Set(key, rights)
		if err := e.flushDirnodeLocked(w.dir, w.version+1); err != nil {
			e.cache.invalidate(w.dir.UUID)
			return err
		}
		return nil
	})
}

// GetACL returns a directory's ACL entries resolved to usernames.
func (e *Enclave) GetACL(dirPath string) (map[string]acl.Rights, error) {
	out := make(map[string]acl.Rights)
	err := e.retryTornEcall(func() error {
		e.mu.Lock()
		defer e.mu.Unlock()
		if err := e.requireAuthLocked(); err != nil {
			return err
		}
		dirs, base, err := splitPath(dirPath)
		if err != nil {
			return err
		}
		if base != "" {
			dirs = append(dirs, base)
		}
		w, err := e.walkDirLocked(dirs)
		if err != nil {
			return err
		}
		if err := e.checkACLLocked(w.dir, acl.Lookup); err != nil {
			return err
		}
		for _, entry := range w.dir.ACL.Entries() {
			name := fmt.Sprintf("uid:%d", entry.UserID)
			if acl.IsGroupEntry(entry.UserID) {
				name = fmt.Sprintf("group:%d", acl.GroupLeaf(entry.UserID))
			} else if u, err := e.super.FindUserByID(entry.UserID); err == nil {
				name = u.Name
			}
			out[name] = entry.Rights
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
