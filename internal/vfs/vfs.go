// Package vfs is the untrusted portion of NEXUS: the filesystem facade
// that user applications (and this repository's database engines,
// workload generators, and Linux-utility reimplementations) program
// against.
//
// It corresponds to the prototype's userspace daemon and shim layer
// (DSN'19 §V): requests are forwarded into the enclave through the
// filesystem API of Table I, and the enclave's storage I/O flows back
// out through the ObjectStore ocall surface. The facade adds the
// conveniences a POSIX-ish consumer expects — MkdirAll, RemoveAll,
// WriteFile-with-create — and open-to-close file handles matching AFS
// semantics: a file is fetched and decrypted at open, operated on
// locally, and re-encrypted and stored at close.
package vfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"path"
	"sort"
	"strings"
	"sync"
	"time"

	"nexus/internal/acl"
	"nexus/internal/backend"
	"nexus/internal/enclave"
	"nexus/internal/freshtree"
	"nexus/internal/lendcheck"
	"nexus/internal/metadata"
	"nexus/internal/obs"
)

// VersionedStore adapts a plain backend.Store to the enclave's versioned
// ObjectStore ocall surface by tracking update counters locally. The AFS
// client implements the surface natively (versions come from the
// server); this adapter covers local directory and in-memory volumes.
//
// The enclave re-fetches every directory on a path, and the filenode of
// the file it stats or reads, on every operation and, when the version is
// the one its decrypted copy came from, throws the bytes away. The
// versions here are this adapter's own counters, so the backing-store
// read behind such a fetch decides nothing; the adapter answers it from
// the sealed bytes of the dirnode or filenode as it last read or wrote it
// — the part the AFS client's cache plays over the network. What it
// serves is the snapshot of the last freshness root it passed up: a read
// of freshtree.RootObjectName that returns a root at another sealed
// version (epoch) than the one this adapter last put or read means a peer
// on another adapter over the same backing store committed since, so
// every kept copy is dropped then, whatever else crossed the read. A copy
// kept past a peer's root would meet the newer root's leaf and fail as a
// rollback.
//
// What does look at the bytes whatever the version says is a re-read
// under a store lock: while this adapter holds any lock, every fetch
// reads the backing store. Never kept: an overflow bucket, whose MAC a
// possibly fresher main object records, so a stale kept bucket would be a
// torn read on every fetch; a data object, checked against its filenode's
// key with the same hazard, and up to a chunk in size; the supernode,
// which a mount reads before the root, so a stale kept copy would meet a
// newer root; and the root itself.
//
// What a fetch returns is lent, read-only (DESIGN.md §14.1): a kept copy
// is handed out as it is, and a copy read from the backing store is kept
// as the very slice read, each capped at its length. Nobody writes into
// them; a put keeps a copy of its caller's buffer, which is only on loan.
//
// An unlocked read sees a peer adapter's put only once this adapter has
// read the root the peer committed with it. The adapter relies on the
// enclave to read the root at the points DESIGN.md §11.5 lists: a commit,
// a mount, a failed proof, Enclave.Revalidate — which FS.Open calls, so a
// handle starts from the latest committed content — and the retry of a
// read torn by the peer's rewrite. Until then Stat, ReadDir and a
// path-level ReadFile of an inline file answer from the snapshot. Clients
// in one process over one backing store should share one adapter.
type VersionedStore struct {
	store  backend.Store
	tracer *obs.Tracer

	mu        sync.Mutex
	versions  map[string]uint64 // guarded by mu
	writes    uint64            // puts and deletes begun plus ended, and roots that moved; guarded by mu
	held      int               // store locks this adapter holds; guarded by mu
	root      uint64            // sealed version of the root last put or read; guarded by mu
	kept      map[string][]byte // sealed dirnodes and filenodes; guarded by mu
	keptBytes int               // the kept arrays' capacity; guarded by mu
}

// keptBudget bounds the kept metadata bytes; past it the adapter drops
// them all and starts over, as the enclave's own metadata cache does.
const keptBudget = 16 << 20

var (
	_ enclave.ObjectStore       = (*VersionedStore)(nil)
	_ enclave.StreamObjectStore = (*VersionedStore)(nil)
)

// NewFreshnessStore and FreshnessTreeObjectName forward to freshtree.New
// and freshtree.TreeObjectName for the callers that still name them here.
func NewFreshnessStore(inner enclave.ObjectStore) enclave.FreshnessProofStore {
	return freshtree.New(inner)
}

const FreshnessTreeObjectName = freshtree.TreeObjectName

// NewVersionedStore wraps store.
func NewVersionedStore(store backend.Store) *VersionedStore {
	return &VersionedStore{store: store, versions: make(map[string]uint64), kept: make(map[string][]byte)}
}

// Instrument attaches the registry's tracer so each store operation
// opens a span under whatever ecall span is active. The enclave calls
// this at construction for any store that exposes it (this is the
// ocall surface of the paper: the only place enclave I/O touches the
// untrusted world, so it is where storage latency is attributed).
func (s *VersionedStore) Instrument(reg *obs.Registry) { s.tracer = reg.Tracer() }

func (s *VersionedStore) span(name string) *obs.Span {
	if s.tracer == nil {
		return nil // Span methods are nil-safe
	}
	return s.tracer.Begin(name)
}

// GetVersioned implements enclave.ObjectStore.
func (s *VersionedStore) GetVersioned(name string) ([]byte, uint64, error) {
	defer s.span("store.get").End()
	s.mu.Lock()
	v, began := s.versions[name], s.writes
	kept, ok := s.kept[name]
	ok = ok && s.held == 0
	s.mu.Unlock()
	if ok {
		kept = kept[:len(kept):len(kept)]
		lendcheck.Lent(s, name, kept)
		return kept, v, nil
	}
	data, err := s.store.Get(name)
	if err != nil {
		return nil, 0, err
	}
	// The backing store's copy is this adapter's: it is kept as it is and
	// lent, read-only, like a kept copy.
	s.mu.Lock()
	v = s.versions[name]
	if name == freshtree.RootObjectName {
		s.seeRootLocked(data)
	} else if s.writes == began {
		// What was read is what the store holds: no write crossed the read.
		s.keepLocked(name, data)
	}
	s.mu.Unlock()
	data = data[:len(data):len(data)]
	lendcheck.Lent(s, name, data)
	return data, v, nil
}

// seeRootLocked takes frame, just read, as the root whose snapshot the
// kept copies are. A root at another sealed version — another epoch — than
// the last one put or read drops them all: a peer committed since. It
// counts as a write, so a read that crossed it, and may have fetched what
// the new root supersedes, keeps nothing.
func (s *VersionedStore) seeRootLocked(frame []byte) {
	v := rootVersion(frame)
	if v != 0 && v == s.root {
		return
	}
	s.dropKeptLocked()
	s.writes++
	s.root = v
}

// rootVersion is the sealed version of a root frame, the epoch it commits
// to, or 0 for bytes that are no sealed object.
func rootVersion(frame []byte) uint64 {
	p, err := metadata.PeekPreamble(frame)
	if err != nil {
		return 0
	}
	return p.Version
}

// PutVersioned implements enclave.ObjectStore. Every put ends by
// replacing the kept copy of the name — with the written bytes if no
// other write through this adapter overlapped it, with nothing otherwise
// — so once writers are done a kept copy is the store's content whatever
// the interleaving was.
func (s *VersionedStore) PutVersioned(name string, data []byte) (uint64, error) {
	defer s.span("store.put").End()
	s.mu.Lock()
	s.writes++
	began := s.writes
	s.mu.Unlock()

	err := s.store.Put(name, data)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.writes++
	switch {
	case name == freshtree.RootObjectName:
		// The root is put under its store lock, so no put of it crossed
		// this one, and one that failed left the store as it was or landed:
		// the next read tells.
		if err == nil {
			s.root = rootVersion(data)
		}
	case err != nil || s.writes != began+1 || !keepable(data):
		s.keepLocked(name, nil)
	default:
		// The caller's buffer is only on loan: keep a copy.
		s.keepLocked(name, bytes.Clone(data))
	}
	if err != nil {
		return 0, err
	}
	s.versions[name]++
	return s.versions[name], nil
}

// keepLocked replaces the kept copy of name with data if data is a
// sealed dirnode or filenode, and drops it otherwise. data becomes the
// adapter's, and is lent from then on: nobody writes into it. Its whole
// array counts against the budget: a directory store's read of a small
// object holds 512 bytes.
func (s *VersionedStore) keepLocked(name string, data []byte) {
	if old, ok := s.kept[name]; ok {
		lendcheck.Dropped(s, name)
		s.keptBytes -= cap(old)
		delete(s.kept, name)
	}
	if !keepable(data) {
		return
	}
	if s.keptBytes+cap(data) > keptBudget {
		s.dropKeptLocked()
	}
	s.kept[name] = data
	s.keptBytes += cap(data)
}

// dropKeptLocked drops every kept copy.
func (s *VersionedStore) dropKeptLocked() {
	lendcheck.DroppedAll(s)
	clear(s.kept)
	s.keptBytes = 0
}

// keepable reports whether data is a sealed dirnode or filenode, the
// objects the adapter keeps.
func keepable(data []byte) bool {
	p, err := metadata.PeekPreamble(data)
	return err == nil && (p.Type == metadata.TypeDirnode || p.Type == metadata.TypeFilenode)
}

// PutVersionedStream implements enclave.StreamObjectStore by draining
// the segment stream into one buffer and delegating to PutVersioned.
// Local volumes have no transfer to overlap, so there is nothing to
// gain from true streaming here — the adapter exists so the enclave's
// encrypt-while-upload path is exercised (and testable) on local and
// in-memory volumes, not just behind a live AFS client. The drained
// copy is mandatory anyway: segment buffers belong to the producer and
// are reused after the call returns.
func (s *VersionedStore) PutVersionedStream(name string, total int, next func() ([]byte, error)) (uint64, error) {
	defer s.span("store.put.stream").End()
	buf := make([]byte, 0, total)
	for {
		seg, err := next()
		if err != nil {
			return 0, err
		}
		if seg == nil {
			break
		}
		buf = append(buf, seg...)
	}
	if len(buf) != total {
		return 0, fmt.Errorf("vfs: streamed put %s: got %d bytes, announced %d", name, len(buf), total)
	}
	return s.PutVersioned(name, buf)
}

// Delete implements enclave.ObjectStore. The version counter is dropped
// with the object: a deleted uuid-named object's name is never used
// again, and keeping counters for deleted names would grow the map by one
// entry per removed object for the life of the mount.
func (s *VersionedStore) Delete(name string) error {
	defer s.span("store.delete").End()
	if err := s.store.Delete(name); err != nil {
		return err
	}
	s.mu.Lock()
	s.writes++
	delete(s.versions, name)
	s.keepLocked(name, nil)
	s.mu.Unlock()
	return nil
}

// Lock implements enclave.ObjectStore.
func (s *VersionedStore) Lock(name string) (func(), error) {
	defer s.span("store.lock").End()
	release, err := s.store.Lock(name)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.held++
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		s.held--
		s.mu.Unlock()
		release()
	}, nil
}

// DirEntry is a directory listing entry.
type DirEntry struct {
	Name string
	// IsDir reports directories; Symlink entries report their target.
	IsDir         bool
	IsSymlink     bool
	SymlinkTarget string
	Size          uint64
}

// FS is the user-facing filesystem over a mounted NEXUS volume.
type FS struct {
	e       *enclave.Enclave
	metrics vfsMetrics
}

// vfsMetrics instruments the facade's top-level operations: each op gets
// a count and a latency histogram, and — when tracing is enabled — a
// root span under which the enclave and storage layers hang their own.
type vfsMetrics struct {
	opens, reads, writes, closes, syncs, setacls *obs.Counter

	openLat, readLat, writeLat, closeLat, syncLat, setaclLat *obs.Histogram

	tracer *obs.Tracer
}

func (m *vfsMetrics) bind(reg *obs.Registry) {
	m.opens = reg.Counter("vfs_open_total")
	m.reads = reg.Counter("vfs_read_total")
	m.writes = reg.Counter("vfs_write_total")
	m.closes = reg.Counter("vfs_close_total")
	m.syncs = reg.Counter("vfs_sync_total")
	m.setacls = reg.Counter("vfs_setacl_total")
	m.openLat = reg.Histogram("vfs_open_seconds")
	m.readLat = reg.Histogram("vfs_read_seconds")
	m.writeLat = reg.Histogram("vfs_write_seconds")
	m.closeLat = reg.Histogram("vfs_close_seconds")
	m.syncLat = reg.Histogram("vfs_sync_seconds")
	m.setaclLat = reg.Histogram("vfs_setacl_seconds")
	m.tracer = reg.Tracer()
}

// New wraps a mounted, authenticated enclave. The facade records into
// the enclave's observability registry so one registry carries the whole
// vfs → enclave → storage stack.
func New(e *enclave.Enclave) *FS {
	fs := &FS{e: e}
	fs.metrics.bind(e.Obs())
	return fs
}

// Enclave exposes the underlying enclave for administrative operations
// (user and ACL management) and statistics.
func (fs *FS) Enclave() *enclave.Enclave { return fs.e }

// Mkdir creates one directory; the parent must exist.
func (fs *FS) Mkdir(p string) error { return fs.e.Mkdir(p) }

// MkdirAll creates a directory and any missing parents.
func (fs *FS) MkdirAll(p string) error {
	p = path.Clean("/" + p)
	if p == "/" {
		return nil
	}
	parts := strings.Split(strings.Trim(p, "/"), "/")
	cur := ""
	for _, part := range parts {
		cur = cur + "/" + part
		err := fs.e.Mkdir(cur)
		if err != nil && !errors.Is(err, enclave.ErrExists) {
			return err
		}
	}
	return nil
}

// Touch creates an empty file; the parent directory must exist.
func (fs *FS) Touch(p string) error { return fs.e.Touch(p) }

// WriteFile writes data to the file at p, creating it if necessary.
func (fs *FS) WriteFile(p string, data []byte) error {
	span := fs.metrics.tracer.Begin("vfs.write")
	start := time.Now()
	defer func() {
		fs.metrics.writes.Inc()
		fs.metrics.writeLat.Record(time.Since(start))
		span.End()
	}()
	// The path-level one-shot write is a durability point: callers have
	// no handle to Sync/Close later, so deferred metadata (the create
	// itself) drains, in the same ecall, before we report success.
	return fs.e.SaveFile(p, data, true)
}

// Sync drains any write-back metadata pending in the enclave to the
// store (a volume-wide metadata barrier). File data buffered in open
// handles is not touched — use File.Sync.
func (fs *FS) Sync() error { return fs.e.SyncMetadata() }

// ReadFile returns the file's contents.
func (fs *FS) ReadFile(p string) ([]byte, error) {
	span := fs.metrics.tracer.Begin("vfs.read")
	start := time.Now()
	defer func() {
		fs.metrics.reads.Inc()
		fs.metrics.readLat.Record(time.Since(start))
		span.End()
	}()
	return fs.e.ReadFile(p)
}

// Remove deletes a file, symlink, or empty directory.
func (fs *FS) Remove(p string) error { return fs.e.Remove(p) }

// RemoveAll deletes p and, for directories, everything beneath it. A
// missing path is not an error.
func (fs *FS) RemoveAll(p string) error {
	st, err := fs.e.Lookup(p)
	if errors.Is(err, enclave.ErrNotFound) {
		return nil
	}
	if err != nil {
		return err
	}
	if st.Kind == metadata.KindDir {
		entries, err := fs.e.Filldir(p)
		if err != nil {
			return err
		}
		for _, entry := range entries {
			if err := fs.RemoveAll(path.Join(p, entry.Name)); err != nil {
				return err
			}
		}
	}
	return fs.e.Remove(p)
}

// Rename moves a file or directory; existing files at the destination
// are replaced.
func (fs *FS) Rename(oldPath, newPath string) error { return fs.e.Rename(oldPath, newPath) }

// Symlink creates a symbolic link.
func (fs *FS) Symlink(target, linkPath string) error { return fs.e.Symlink(target, linkPath) }

// Hardlink creates an additional name for an existing file.
func (fs *FS) Hardlink(existing, newPath string) error { return fs.e.Hardlink(existing, newPath) }

// Stat describes the entry at p.
func (fs *FS) Stat(p string) (DirEntry, error) {
	st, err := fs.e.Lookup(p)
	if err != nil {
		return DirEntry{}, err
	}
	return DirEntry{
		Name:          st.Name,
		IsDir:         st.Kind == metadata.KindDir,
		IsSymlink:     st.Kind == metadata.KindSymlink,
		SymlinkTarget: st.SymlinkTarget,
		Size:          st.Size,
	}, nil
}

// Exists reports whether p names an entry.
func (fs *FS) Exists(p string) (bool, error) {
	_, err := fs.e.Lookup(p)
	if errors.Is(err, enclave.ErrNotFound) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, nil
}

// ReadDir lists a directory, sorted by name. Sizes are not populated
// (they require a filenode fetch per file; use Stat for one file).
func (fs *FS) ReadDir(p string) ([]DirEntry, error) {
	stats, err := fs.e.Filldir(p)
	if err != nil {
		return nil, err
	}
	out := make([]DirEntry, 0, len(stats))
	for _, st := range stats {
		out = append(out, DirEntry{
			Name:          st.Name,
			IsDir:         st.Kind == metadata.KindDir,
			IsSymlink:     st.Kind == metadata.KindSymlink,
			SymlinkTarget: st.SymlinkTarget,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Walk calls fn for every entry under root (depth-first, lexical order),
// with the entry's full path. fn may return ErrSkipDir for directories.
func (fs *FS) Walk(root string, fn func(p string, entry DirEntry) error) error {
	st, err := fs.Stat(root)
	if err != nil {
		return err
	}
	if err := fn(path.Clean("/"+root), st); err != nil {
		if errors.Is(err, ErrSkipDir) && st.IsDir {
			return nil
		}
		return err
	}
	if !st.IsDir {
		return nil
	}
	entries, err := fs.ReadDir(root)
	if err != nil {
		return err
	}
	for _, entry := range entries {
		child := path.Join(root, entry.Name)
		if entry.IsDir {
			if err := fs.Walk(child, fn); err != nil {
				return err
			}
			continue
		}
		childStat, err := fs.Stat(child)
		if err != nil {
			return err
		}
		if err := fn(path.Clean("/"+child), childStat); err != nil {
			if errors.Is(err, ErrSkipDir) {
				continue
			}
			return err
		}
	}
	return nil
}

// ErrSkipDir tells Walk to skip a directory's contents.
var ErrSkipDir = errors.New("vfs: skip directory")

// IsUnavailable reports whether err is a storage-substrate failure —
// the backing service unreachable, an operation past its deadline, or a
// mutating exchange interrupted with unknown outcome. Applications can
// treat these as transient: the data buffered in an open handle is
// intact and the operation may be retried (see File.Close).
func IsUnavailable(err error) bool {
	return errors.Is(err, enclave.ErrStoreUnavailable) || backend.IsUnavailable(err)
}

// SetACL grants rights to a user on a directory (acl.None revokes).
func (fs *FS) SetACL(dirPath, userName string, rights acl.Rights) error {
	span := fs.metrics.tracer.Begin("vfs.setacl")
	start := time.Now()
	defer func() {
		fs.metrics.setacls.Inc()
		fs.metrics.setaclLat.Record(time.Since(start))
		span.End()
	}()
	return fs.e.SetACL(dirPath, userName, rights)
}

// GetACL returns a directory's ACL keyed by username.
func (fs *FS) GetACL(dirPath string) (map[string]acl.Rights, error) {
	return fs.e.GetACL(dirPath)
}

// Open flags, mirroring the os package subset the handle supports.
const (
	O_RDONLY = 0x0
	O_RDWR   = 0x2
	O_CREATE = 0x40
	O_TRUNC  = 0x200
	O_APPEND = 0x400
)

// File is an open-to-close file handle: contents are fetched and
// decrypted once at Open, all reads and writes are local, and dirty
// contents are re-encrypted and stored at Close (or Sync) — exactly the
// session semantics AFS gives the prototype (§VII-A).
type File struct {
	fs    *FS
	path  string
	flags int

	mu    sync.Mutex
	buf   []byte
	pos   int64
	dirty bool
	open  bool
}

// Open opens the file at p.
func (fs *FS) Open(p string, flags int) (*File, error) {
	span := fs.metrics.tracer.Begin("vfs.open")
	start := time.Now()
	defer func() {
		fs.metrics.opens.Inc()
		fs.metrics.openLat.Record(time.Since(start))
		span.End()
	}()
	// The handle starts from the file as last committed by any client,
	// not from the snapshot a VersionedStore serves until it next reads
	// the root: Close writes the whole buffer back.
	if err := fs.e.Revalidate(); err != nil {
		return nil, err
	}
	f := &File{fs: fs, path: p, flags: flags, open: true}
	data, err := fs.e.ReadFile(p)
	switch {
	case err == nil:
		if flags&O_TRUNC == 0 {
			f.buf = data
		} else {
			f.dirty = true
		}
	case errors.Is(err, enclave.ErrNotFound) && flags&O_CREATE != 0:
		if err := fs.e.Touch(p); err != nil && !errors.Is(err, enclave.ErrExists) {
			return nil, err
		}
		f.dirty = true
	default:
		return nil, err
	}
	if flags&O_APPEND != 0 {
		f.pos = int64(len(f.buf))
	}
	return f, nil
}

// Read implements io.Reader.
func (f *File) Read(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.open {
		return 0, fmt.Errorf("vfs: read of closed file %s", f.path)
	}
	if f.pos >= int64(len(f.buf)) {
		return 0, io.EOF
	}
	n := copy(p, f.buf[f.pos:])
	f.pos += int64(n)
	return n, nil
}

// ReadAt implements io.ReaderAt.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.open {
		return 0, fmt.Errorf("vfs: read of closed file %s", f.path)
	}
	if off < 0 || off >= int64(len(f.buf)) {
		return 0, io.EOF
	}
	n := copy(p, f.buf[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// Write implements io.Writer.
func (f *File) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.open {
		return 0, fmt.Errorf("vfs: write to closed file %s", f.path)
	}
	if f.flags&O_RDWR == 0 && f.flags&O_APPEND == 0 {
		return 0, fmt.Errorf("vfs: file %s not open for writing", f.path)
	}
	end := f.pos + int64(len(p))
	if end > int64(len(f.buf)) {
		grown := make([]byte, end)
		copy(grown, f.buf)
		f.buf = grown
	}
	copy(f.buf[f.pos:end], p)
	f.pos = end
	f.dirty = true
	return len(p), nil
}

// Seek implements io.Seeker.
func (f *File) Seek(offset int64, whence int) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.open {
		return 0, fmt.Errorf("vfs: seek in closed file %s", f.path)
	}
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = f.pos
	case io.SeekEnd:
		base = int64(len(f.buf))
	default:
		return 0, fmt.Errorf("vfs: bad whence %d", whence)
	}
	pos := base + offset
	if pos < 0 {
		return 0, fmt.Errorf("vfs: negative seek position")
	}
	f.pos = pos
	return pos, nil
}

// Truncate resizes the buffered contents.
func (f *File) Truncate(size int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.open {
		return fmt.Errorf("vfs: truncate of closed file %s", f.path)
	}
	if size < 0 {
		return fmt.Errorf("vfs: negative truncate size")
	}
	switch {
	case size < int64(len(f.buf)):
		f.buf = f.buf[:size]
	case size > int64(len(f.buf)):
		grown := make([]byte, size)
		copy(grown, f.buf)
		f.buf = grown
	}
	f.dirty = true
	return nil
}

// Size returns the buffered length.
func (f *File) Size() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return int64(len(f.buf))
}

// Sync encrypts and uploads dirty contents without closing the handle
// (fsync; the file's chunks are re-keyed, §VI-A).
func (f *File) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.open {
		return fmt.Errorf("vfs: sync of closed file %s", f.path)
	}
	m := &f.fs.metrics
	span := m.tracer.Begin("vfs.sync")
	start := time.Now()
	defer func() {
		m.syncs.Inc()
		m.syncLat.Record(time.Since(start))
		span.End()
	}()
	return f.syncLocked()
}

// syncLocked writes dirty contents and drains, in one ecall. Sync/Close
// are metadata barriers even when the buffer is clean: the create that
// backs this handle may still be deferred in the enclave's dirty set. The
// drain is idempotent and retryable, so Close's stay-open-on-unavailable
// contract holds.
func (f *File) syncLocked() error {
	if !f.dirty {
		return f.fs.e.SyncMetadata()
	}
	if err := f.fs.e.SaveFile(f.path, f.buf, false); err != nil {
		return err
	}
	f.dirty = false
	return nil
}

// Close flushes dirty contents and invalidates the handle. If the flush
// fails because the storage substrate is unavailable (IsUnavailable),
// the handle stays open with its buffer intact so the caller can retry
// Close (or Sync) once the service recovers — closing would discard the
// only surviving copy of the data. Any other failure invalidates the
// handle as usual.
func (f *File) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.open {
		return nil
	}
	m := &f.fs.metrics
	span := m.tracer.Begin("vfs.close")
	start := time.Now()
	defer func() {
		m.closes.Inc()
		m.closeLat.Record(time.Since(start))
		span.End()
	}()
	err := f.syncLocked()
	if err != nil && IsUnavailable(err) {
		return err
	}
	f.open = false
	f.buf = nil
	return err
}
