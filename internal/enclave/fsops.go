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

// walkResult carries a resolved directory and its current metadata
// version (used for version bumps on flush).
type walkResult struct {
	dir     *metadata.Dirnode
	version uint64
}

// walkDirLocked resolves a directory path from the volume root, applying
// the Lookup right and parent-UUID validation at each step (§IV-A3).
func (e *Enclave) walkDirLocked(dirs []string) (walkResult, error) {
	// A walk nothing was read ahead for reads its predicted objects in one
	// exit.
	if len(e.stash) == 0 {
		if err := e.exitLocked(getsAhead(e.predictWalksLocked(dirs))...); err != nil {
			return walkResult{}, err
		}
	}
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

// predictWalkLocked names, as reads ahead, the objects a walk will fetch,
// judged from the decrypted cache and the dirty set alone: the root
// dirnode, each directory on the path and the leaf's filenode — and, for
// a read (leafRight includes acl.Read), its data object — less the dirty
// copies, which shadow the store. It follows only entries in resident
// buckets of directories whose ACL grants the walk's right, and it ends
// with the first object the cache does not hold, so it names no object
// the walk would not fetch from the copies it has.
func (e *Enclave) predictWalkLocked(dirs []string, leaf string, leafRight acl.Rights) []aheadRead {
	var reads []aheadRead
	read := func(id uuid.UUID, data bool) {
		reads = append(reads, aheadRead{name: objName(id), data: data})
	}
	next := func(id uuid.UUID) *metadata.Dirnode {
		if d, _, ok := e.dirtyDirnodeLocked(id); ok {
			return d
		}
		read(id, false)
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
			return reads
		}
		entry, err := cur.Lookup(name, notResident)
		if err != nil || entry.Kind != metadata.KindDir {
			return reads
		}
		cur = next(entry.UUID)
	}
	if leaf == "" || cur == nil || e.checkACLLocked(cur, leafRight) != nil {
		return reads
	}
	entry, err := cur.Lookup(leaf, notResident)
	if err != nil || entry.Kind != metadata.KindFile {
		return reads
	}
	if _, _, dirty := e.dirtyFilenodeLocked(entry.UUID); dirty {
		return reads
	}
	read(entry.UUID, false)
	if c, ok := e.cache.entries[entry.UUID]; ok && leafRight&acl.Read != 0 {
		if f, ok := c.obj.(*metadata.Filenode); ok && f.HasDataObject() {
			read(f.DataUUID, true)
		}
	}
	return reads
}

// predictWalksLocked names the objects walks of each of dirs will fetch.
func (e *Enclave) predictWalksLocked(dirs ...[]string) []aheadRead {
	var reads []aheadRead
	for _, d := range dirs {
		reads = append(reads, e.predictWalkLocked(d, "", 0)...)
	}
	return reads
}

// checkACLLocked enforces the directory's ACL for the authenticated user
// (default deny, owner override; §IV-C). Group entries resolve through
// the membership key tree: a grant to the user's leaf subgroup counts
// toward the requested rights.
func (e *Enclave) checkACLLocked(d *metadata.Dirnode, want acl.Rights) error {
	groups := e.super.GroupTree.GroupsOf(e.user.ID)
	if d.ACL.CheckGroups(e.user.ID, e.isOwnerLocked(), groups, want) {
		return nil
	}
	have := d.ACL.ResolveRights(e.user.ID, groups)
	return fmt.Errorf("%w: user %q needs %s on directory, has %s",
		ErrAccessDenied, e.user.Name, want, have)
}

// createEntry is the shared implementation of Touch, Mkdir and Symlink.
func (e *Enclave) createEntry(path string, kind metadata.EntryKind, symlinkTarget string) error {
	return e.ecall(needAuth, func() error {
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
		if _, err := e.createEntryWritebackLocked(w, path, name, kind, symlinkTarget); err != nil {
			return err
		}
		return e.maybeDrainLocked()
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
	return e.ecall(needAuth, func() error {
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
		return e.removeWritebackLocked(w, dirs, path, name)
	})
}

// isNotExist reports whether a store error means the object is absent.
// Every ObjectStore returns the typed sentinel for that; the text of an
// error is the store's to choose and proves nothing.
func isNotExist(err error) bool {
	return errors.Is(err, backend.ErrNotExist)
}

// Lookup finds an entry by path and returns its attributes
// (nexus_fs_lookup). Like ReadFile and Filldir, it is a read-only walk:
// its stub makes the reads the walk's hint names before entering, so a
// warm walk with a current hint makes no exit (DESIGN.md §11.5).
func (e *Enclave) Lookup(path string) (Stat, error) {
	var st Stat
	err := e.walkEcall(walkLookup, path, func(walk *readWalk) error {
		if walk.name == "" {
			st = Stat{Name: "/", Kind: metadata.KindDir}
			_, err := e.walkDirLocked(nil)
			return err
		}
		w, err := e.walkDirLocked(walk.dirs)
		if err != nil {
			return err
		}
		if err := e.checkACLLocked(w.dir, acl.Lookup); err != nil {
			return err
		}
		entry, err := e.lookupEntryLocked(w.dir, walk.name, path)
		if err != nil {
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
	err := e.walkEcall(walkList, path, func(walk *readWalk) error {
		w, err := e.walkDirLocked(walk.dirs)
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
// (nexus_fs_hardlink). Directories cannot be hardlinked. It spans two
// directories and mutates a shared link count, so it runs eagerly: one
// commit with the drain that also holds the filenode's lock, which puts
// the raised count before the directory that names the new link.
func (e *Enclave) Hardlink(existingPath, newPath string) error {
	return e.ecall(needAuth, func() error { return e.hardlinkLocked(existingPath, newPath) })
}

// hardlinkLocked is the body of Hardlink.
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
	resolve := func() ([]uuid.UUID, []aheadRead, error) {
		if srcW, err = e.walkDirLocked(srcDirs); err != nil {
			return nil, nil, err
		}
		if err := e.checkACLLocked(srcW.dir, acl.Lookup); err != nil {
			return nil, nil, err
		}
		if dstW, err = e.walkDirLocked(dstDirs); err != nil {
			return nil, nil, err
		}
		if err := e.checkACLLocked(dstW.dir, acl.Insert); err != nil {
			return nil, nil, err
		}
		if entry, err = e.lookupEntryLocked(srcW.dir, srcName, existingPath); err != nil {
			return nil, nil, err
		}
		if entry.Kind != metadata.KindFile {
			return nil, nil, fmt.Errorf("%w: %s", ErrNotFile, existingPath)
		}
		return []uuid.UUID{entry.UUID}, []aheadRead{{name: objName(entry.UUID)}}, nil
	}
	return e.commitFilesLocked([][]string{srcDirs, dstDirs}, resolve, func() error {
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
		if err := e.putFilenodeLocked(f, fv+1); err != nil {
			return err
		}
		return e.flushDirnodeLocked(dstW.dir, nextVersion(dstW.version, false))
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
// first — and returns, sorted, the filenodes the commit rewrites and the
// objects fn loads; the filenode locks are taken, then the root lock, with
// the second walk's reads and fn's read ahead in its exit, and resolve
// walks again under it. fn runs if that second walk names the same
// filenodes; if not, everything is released and the sequence restarts, a
// bounded number of times. Both walks are those of walks. The commit is
// one with the drain (commitWithDrainLocked).
func (e *Enclave) commitFilesLocked(walks [][]string, resolve func() ([]uuid.UUID, []aheadRead, error), fn func() error) error {
	for attempt := 0; ; attempt++ {
		if err := e.exitLocked(getsAhead(e.predictWalksLocked(walks...))...); err != nil {
			return err
		}
		ids, loads, err := resolve()
		if err != nil {
			return err
		}
		var releases []func()
		for _, id := range ids {
			releases = append(releases, e.lockObject(objName(id)))
		}
		err = e.commitWithDrainLocked(getsAhead(append(e.predictWalksLocked(walks...), loads...)), func() error {
			again, _, err := resolve()
			if err != nil {
				return err
			}
			if !slices.Equal(again, ids) {
				return errRelock
			}
			return fn()
		})
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
// replaced; an existing directory is an error. Rename spans two
// directories (with replace semantics), so it runs eagerly: one commit
// with the drain that also holds the lock of each filenode it rewrites, a
// file moved to another directory (re-parented) and a file it replaces.
// A destination below the source is refused before the enclave is
// entered, as rename(2) refuses it with EINVAL: the moved directory would
// hang below itself, out of the volume root's reach.
func (e *Enclave) Rename(oldPath, newPath string) error {
	if src := strings.Trim(oldPath, "/"); src != "" && strings.HasPrefix(strings.Trim(newPath, "/"), src+"/") {
		return fmt.Errorf("enclave: cannot move %s below itself, to %s", oldPath, newPath)
	}
	return e.ecall(needAuth, func() error { return e.renameLocked(oldPath, newPath) })
}

// renameLocked is the body of Rename.
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

	walks := [][]string{srcDirs}
	if !slices.Equal(srcDirs, dstDirs) {
		walks = append(walks, dstDirs)
	}
	var srcW, dstW walkResult
	var entry, existing metadata.DirEntry
	var sameDir, replaces, onto bool
	resolve := func() ([]uuid.UUID, []aheadRead, error) {
		if srcW, err = e.walkDirLocked(srcDirs); err != nil {
			return nil, nil, err
		}
		if err := e.checkACLLocked(srcW.dir, acl.Delete); err != nil {
			return nil, nil, err
		}
		if dstW = srcW; len(walks) > 1 {
			if dstW, err = e.walkDirLocked(dstDirs); err != nil {
				return nil, nil, err
			}
		}
		if err := e.checkACLLocked(dstW.dir, acl.Insert); err != nil {
			return nil, nil, err
		}
		sameDir = srcW.dir.UUID == dstW.dir.UUID
		if entry, err = e.lookupEntryLocked(srcW.dir, srcName, oldPath); err != nil {
			return nil, nil, err
		}
		existing, err = dstW.dir.Lookup(dstName, e.bucketLoaderFor(dstW.dir))
		if replaces = err == nil; err != nil && !errors.Is(err, metadata.ErrEntryNotFound) {
			return nil, nil, err
		}
		onto = replaces && existing.UUID == entry.UUID && sameDir && srcName == dstName
		// fn loads the child it re-parents and the file it replaces.
		var ids []uuid.UUID
		var loads []aheadRead
		if !sameDir && entry.Kind != metadata.KindSymlink {
			loads = append(loads, aheadRead{name: objName(entry.UUID)})
			if entry.Kind == metadata.KindFile {
				ids = append(ids, entry.UUID)
			}
		}
		if replaces && existing.Kind == metadata.KindFile && !onto {
			loads = append(loads, aheadRead{name: objName(existing.UUID)})
		}
		if replaces && existing.Kind == metadata.KindFile && !slices.Contains(ids, existing.UUID) {
			ids = append(ids, existing.UUID)
		}
		sortUUIDs(ids)
		return ids, loads, nil
	}
	return e.commitFilesLocked(walks, resolve, func() error {
		// Replace semantics at the destination: a file replaced loses the
		// link as Remove unlinks it, once both directories are queued — its
		// count drops after them, and its last link's deletes are staged
		// once they are up.
		var unlink func() error
		var last bool
		if replaces {
			if onto {
				return nil // rename onto itself
			}
			switch existing.Kind {
			case metadata.KindDir:
				return fmt.Errorf("%w: destination %s is a directory", ErrExists, newPath)
			case metadata.KindFile:
				if unlink, last, err = e.unlinkFileLocked(dstW.dir.UUID, existing.UUID); err != nil {
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
				if err := e.flushDirnodeLocked(child, nextVersion(cv, false)); err != nil {
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
					if err := e.putFilenodeLocked(f, fv+1); err != nil {
						return err
					}
				}
			case metadata.KindSymlink:
			}
		}

		if err := e.flushDirnodeLocked(srcW.dir, nextVersion(srcW.version, false)); err != nil {
			return err
		}
		if !sameDir {
			if err := e.flushDirnodeLocked(dstW.dir, nextVersion(dstW.version, false)); err != nil {
				return err
			}
		}
		switch {
		case unlink == nil:
		case last:
			e.onSuccessLocked(func() { _ = unlink() }) // stages deletes; never fails
		default:
			return unlink()
		}
		return nil
	})
}

// streamPutCutoff is the write size from which WriteFile pipelines
// encryption into the upload on stream-capable stores. A streamed put
// costs one network write per sealed segment where the assembled put
// costs one in all; below ~4 MiB the crypto time worth hiding is smaller
// than that extra per-segment latency.
const streamPutCutoff = 4 << 20

// encryptAndPutLocked seals data under f's freshly rotated contexts and
// queues the upload of the sealed blob to f's data object. On
// stream-capable stores, writes at or above the streaming cutoff instead
// upload now, overlapping chunk sealing with the upload.
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
	e.putObject(name, blob, nil, func(c *storeCall) error {
		if c.err != nil {
			return fmt.Errorf("uploading data object: %w", c.err)
		}
		e.metrics.dataBytes.Add(int64(len(blob)))
		return nil
	}).data = true
	return nil
}

// streamPutLocked runs the encrypt-while-upload pipeline: workers seal
// chunks into dst while the store drains the completed prefix through
// the stream put. The chunk-crypto histogram records the sealing time
// alone (the stream stamps it when the last chunk lands), so streamed
// writes don't pollute the crypto latency distribution with network
// time; the put, data I/O, captures the fused transfer.
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
	put := &storeCall{op: opRun, data: true, run: func() error {
		_, err := ss.PutVersionedStream(name, f.SealedSize(len(data)), stream.Next)
		return err
	}}
	putErr := e.sgx.Ocall(func() error {
		e.makeCall(put, ioNow())
		return put.err
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
// object, whose upload it queues (encryptAndPutLocked). f itself is left
// as it was, so a failed upload changes nothing the next flush could seal.
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

// SaveFile replaces a file's contents (nexus_fs_encrypt), re-seals its
// filenode and drains the pending metadata, in one ecall: the durable write
// of vfs's FS.WriteFile and File.Sync. Content of at most
// metadata.MaxInlineSize bytes is sealed in the filenode itself; larger
// content goes to the data object, every chunk re-encrypted with fresh
// keys. A data object the new content no longer uses is deleted by the
// same commit, after the filenode that stopped naming it. With create set a missing file is created first, as Touch creates
// it; a retry of the ecall after a torn directory finds the entry it created
// and writes it. An overwrite of a file the store holds is one commit with
// the drain, under the file's lock.
func (e *Enclave) SaveFile(path string, data []byte, create bool) error {
	return e.ecall(needAuth, func() error {
		if err := e.writeFileLocked(path, data, create); err != nil {
			return err
		}
		return e.drainWithRetryLocked()
	})
}

// writeFileLocked is the body of SaveFile.
func (e *Enclave) writeFileLocked(path string, data []byte, create bool) error {
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
	if errors.Is(err, metadata.ErrEntryNotFound) && create {
		if err = e.checkACLLocked(w.dir, acl.Insert); err == nil {
			entry, err = e.createEntryWritebackLocked(w, path, name, metadata.KindFile, "")
		}
	}
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
		old := n.file
		next, err := e.writeContentLocked(old, data)
		if err != nil {
			return err
		}
		update := func() {
			if old.HasDataObject() && !next.HasDataObject() {
				e.stageDeleteLocked(old.DataUUID, false)
			}
			e.setDirtyFilenodeLocked(n, next)
		}
		if !e.putQueuedLocked(objName(next.DataUUID)) { // inline, or streamed already
			update()
			return nil
		}
		// The data put leaves with the drain's first exit, and the filenode
		// takes the new content only once it is made, so a failed upload
		// leaves the file readable as it was. The drain is not retried: a
		// retry would commit the file without it.
		e.onSuccessLocked(update)
		return e.drainLocked()
	}

	defer e.lockObject(objName(entry.UUID))()
	f, fv, err := e.loadFilenode(entry.UUID, w.dir.UUID)
	if err != nil {
		return err
	}
	next, err := e.writeContentLocked(f, data) // rides the commit's first exit
	if err != nil {
		return err
	}
	if err := e.putFilenodeLocked(next, fv+1); err != nil {
		return err
	}
	// Content that went inline leaves the old data object unnamed once the
	// filenode is up.
	unnamed := false
	if f.HasDataObject() && !next.HasDataObject() {
		e.onSuccessLocked(func() { unnamed = true })
	}
	// The drain's commit takes the filenode's freshness record, and the
	// filenode's lock is held until that commit's root put, so no peer
	// commits the filenode in between. No retry: a retried drain would
	// succeed without the failed filenode put.
	err = e.drainLocked()
	switch {
	case unnamed && err != nil:
		// The filenode is up but not committed: the next drain deletes.
		e.stageDeleteLocked(f.DataUUID, false)
	case unnamed:
		// The delete rides the commit's last exit, after the root put, and
		// is made only if that put is; one not made waits for the next
		// drain.
		e.deleteObject(objName(f.DataUUID), nil, func(c *storeCall) error {
			if c.err != nil {
				e.stageDeleteLocked(f.DataUUID, false)
			}
			return nil
		})
	}
	return err
}

// ReadFile returns a file's decrypted contents (nexus_fs_decrypt) after
// the Read ACL check.
func (e *Enclave) ReadFile(path string) ([]byte, error) {
	var out []byte
	err := e.walkEcall(walkRead, path, func(walk *readWalk) error {
		w, err := e.walkDirLocked(walk.dirs)
		if err != nil {
			return err
		}
		if err := e.checkACLLocked(w.dir, acl.Read); err != nil {
			return err
		}
		entry, err := e.lookupEntryLocked(w.dir, walk.name, path)
		if err != nil {
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
		// A data object gone or failing against its filenode is torn when
		// the filenode is older than the store's: a peer rewrote the file
		// since the copy this walk fetched (ecall).
		blob, _, err := e.fetch(storeCall{op: opGet, name: objName(f.DataUUID), data: true})
		if isNotExist(err) {
			return &tornError{err: fmt.Errorf("fetching data object: %w", err)}
		}
		if err != nil {
			return fmt.Errorf("fetching data object: %w", err)
		}
		out, err = e.timedChunkCrypto(int(f.Size), func() ([]byte, error) {
			return f.DecryptContent(blob)
		})
		if errors.Is(err, metadata.ErrTampered) {
			return &tornError{err: err}
		}
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
	return e.ecall(needAuth, func() error {
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
// applies to the freshest version. Revocation must not leave any
// pre-revocation metadata pending (§VII-E): the commit is one with the
// drain, which seals the pending metadata after the change.
func (e *Enclave) setACLEntryLocked(dirPath string, rights acl.Rights, subject func() (uint32, error)) error {
	dirs, base, err := splitPath(dirPath)
	if err != nil {
		return err
	}
	if base != "" {
		dirs = append(dirs, base)
	}
	return e.commitWithDrainLocked(getsAhead(e.predictWalksLocked(dirs)), func() error {
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
		widening := rights.Has(w.dir.ACL.Get(key)) && e.widenLocked()
		w.dir.ACL.Set(key, rights)
		return e.flushDirnodeLocked(w.dir, nextVersion(w.version, widening))
	})
}

// GetACL returns a directory's ACL entries resolved to usernames.
func (e *Enclave) GetACL(dirPath string) (map[string]acl.Rights, error) {
	out := make(map[string]acl.Rights)
	err := e.ecall(needAuth, func() error {
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
