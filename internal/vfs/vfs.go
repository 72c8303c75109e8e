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
	"nexus/internal/metadata"
	"nexus/internal/obs"
)

// VersionedStore adapts a plain backend.Store to the enclave's versioned
// ObjectStore ocall surface by tracking update counters locally. The AFS
// client implements the surface natively (versions come from the
// server); this adapter covers local directory and in-memory volumes.
//
// The enclave re-fetches every directory on a path on every operation
// and, when the version is the one its decrypted copy came from, throws
// the bytes away. The versions here are this adapter's own counters, so
// the backing-store read behind such a fetch decides nothing; the adapter
// answers it from the sealed bytes of the dirnode as it last read or
// wrote it — the part the AFS client's cache plays over the network.
// What does look at the bytes whatever the version says is a re-read
// under a store lock, made because a peer on another adapter over the
// same backing store may have put since: while this adapter holds any
// lock, every fetch reads the backing store. Only dirnode main objects
// are kept: an overflow bucket is checked against the MAC a possibly
// fresher main object records, and everything else is small. An unlocked
// read sees a peer adapter's put to a directory only after this adapter
// next fetches it under a lock or writes it (it never saw one while the
// enclave held its decrypted copy); clients in one process over one
// backing store should share one adapter.
type VersionedStore struct {
	store  backend.Store
	tracer *obs.Tracer

	mu        sync.Mutex
	versions  map[string]uint64 // guarded by mu
	writes    uint64            // puts and deletes begun plus ended; guarded by mu
	held      int               // store locks this adapter holds; guarded by mu
	kept      map[string][]byte // sealed dirnodes; guarded by mu
	keptBytes int               // guarded by mu
}

// keptBudget bounds the kept dirnode bytes; past it the adapter drops
// them all and starts over, as the enclave's own metadata cache does.
const keptBudget = 16 << 20

var (
	_ enclave.ObjectStore       = (*VersionedStore)(nil)
	_ enclave.StreamObjectStore = (*VersionedStore)(nil)
)

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
		return bytes.Clone(kept), v, nil
	}
	data, err := s.store.Get(name)
	if err != nil {
		return nil, 0, err
	}
	s.mu.Lock()
	v = s.versions[name]
	// What was read is what the store holds if no write crossed the read.
	if s.writes == began {
		s.keepLocked(name, data)
	}
	s.mu.Unlock()
	return data, v, nil
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
	if err != nil || s.writes != began+1 {
		data = nil
	}
	s.keepLocked(name, data)
	if err != nil {
		return 0, err
	}
	s.versions[name]++
	return s.versions[name], nil
}

// keepLocked replaces the kept copy of name with data if data is a
// sealed dirnode, and drops it otherwise.
func (s *VersionedStore) keepLocked(name string, data []byte) {
	s.keptBytes -= len(s.kept[name])
	delete(s.kept, name)
	if p, err := metadata.PeekPreamble(data); err != nil || p.Type != metadata.TypeDirnode {
		return
	}
	if s.keptBytes+len(data) > keptBudget {
		clear(s.kept)
		s.keptBytes = 0
	}
	s.kept[name] = bytes.Clone(data)
	s.keptBytes += len(data)
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
	err := fs.e.WriteFile(p, data)
	if errors.Is(err, enclave.ErrNotFound) {
		if err := fs.e.Touch(p); err != nil && !errors.Is(err, enclave.ErrExists) {
			return err
		}
		err = fs.e.WriteFile(p, data)
	}
	if err != nil {
		return err
	}
	// The path-level one-shot write is a durability point: callers have
	// no handle to Sync/Close later, so deferred metadata (the create
	// itself) drains before we report success.
	return fs.e.SyncMetadata()
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

func (f *File) syncLocked() error {
	if f.dirty {
		if err := f.fs.e.WriteFile(f.path, f.buf); err != nil {
			return err
		}
		f.dirty = false
	}
	// Sync/Close are metadata barriers even when the buffer is clean:
	// the create that backs this handle may still be deferred in the
	// enclave's dirty set. The drain is idempotent and retryable, so
	// Close's stay-open-on-unavailable contract holds.
	return f.fs.e.SyncMetadata()
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
