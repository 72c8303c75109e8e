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
// WriteFile-with-create — and builds the open-to-close handle both
// filesystems share, fsapi.Handle: a file is fetched and decrypted at
// open, operated on locally, and re-encrypted and stored at Sync and
// Close. Over the shared handle vfs adds only a revalidation before the
// open's read and the vfs_open/vfs_sync/vfs_close metrics and spans.
package vfs

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"nexus/internal/acl"
	"nexus/internal/backend"
	"nexus/internal/enclave"
	"nexus/internal/freshtree"
	"nexus/internal/fsapi"
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
// path-level ReadFile of an inline file — any file of at most
// metadata.MaxInlineSize bytes, one 64 KiB AFS chunk sealed — answer from
// the snapshot; a handle's open-to-close freshness is the same for either
// layout. Clients in one process over one backing store should share one
// adapter.
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

// keptBudget bounds the kept metadata bytes, inline file content
// included: 1 024 files at the inline cap, or over 100 000 filenodes of
// chunked files. Past it the adapter drops kept filenodes to make room
// (makeRoomLocked).
const keptBudget = 64 << 20

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
		s.makeRoomLocked(cap(data))
	}
	s.kept[name] = data
	s.keptBytes += cap(data)
}

// makeRoomLocked drops kept filenodes until n more bytes fit the budget,
// in map order, which Go randomises: a working set above the budget keeps
// a share of itself warm, where dropping every copy would leave a cyclic
// scan none. Dirnodes, which every walk re-reads, go only if filenodes
// alone cannot make the room, and then all at once.
func (s *VersionedStore) makeRoomLocked(n int) {
	for name, kept := range s.kept {
		if s.keptBytes+n <= keptBudget {
			return
		}
		if p, err := metadata.PeekPreamble(kept); err == nil && p.Type == metadata.TypeFilenode {
			lendcheck.Dropped(s, name)
			s.keptBytes -= cap(kept)
			delete(s.kept, name)
		}
	}
	if s.keptBytes+n > keptBudget {
		s.dropKeptLocked()
	}
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
type DirEntry = fsapi.DirEntry

// FS is the user-facing filesystem over a mounted NEXUS volume.
type FS struct {
	e       *enclave.Enclave
	metrics vfsMetrics
	backing fsapi.Backing // what every handle reads, creates and saves through
}

// vfsMetrics instruments the facade's top-level operations: each op gets
// a count and a latency histogram, and — when tracing is enabled — a
// root span under which the enclave and storage layers hang their own.
type vfsMetrics struct {
	open, read, write, close, sync, setacl opMetric
}

// opMetric is one operation's vfs_<op>_total counter, vfs_<op>_seconds
// histogram and vfs.<op> span.
type opMetric struct {
	span   string
	count  *obs.Counter
	lat    *obs.Histogram
	tracer *obs.Tracer
}

func (m *vfsMetrics) bind(reg *obs.Registry) {
	op := func(name string) opMetric {
		return opMetric{span: "vfs." + name, count: reg.Counter("vfs_" + name + "_total"),
			lat: reg.Histogram("vfs_" + name + "_seconds"), tracer: reg.Tracer()}
	}
	m.open, m.read, m.write = op("open"), op("read"), op("write")
	m.close, m.sync, m.setacl = op("close"), op("sync"), op("setacl")
}

// timing is one operation in flight: defer m.begin().end().
type timing struct {
	m     *opMetric
	span  *obs.Span
	start time.Time
}

func (m *opMetric) begin() timing { return timing{m, m.tracer.Begin(m.span), time.Now()} }

func (t timing) end() {
	t.m.count.Inc()
	t.m.lat.Record(time.Since(t.start))
	t.span.End()
}

// New wraps a mounted, authenticated enclave. The facade records into
// the enclave's observability registry so one registry carries the whole
// vfs → enclave → storage stack.
func New(e *enclave.Enclave) *FS {
	fs := &FS{e: e}
	fs.metrics.bind(e.Obs())
	fs.backing = fsapi.Backing{
		Read:    e.ReadFile,
		Missing: func(err error) bool { return errors.Is(err, enclave.ErrNotFound) },
		Create:  e.Touch,
		// Sync and Close are metadata barriers even when the buffer is
		// clean: the create that backs the handle may still be deferred in
		// the enclave's dirty set. The drain is idempotent and retryable,
		// so Close's stay-open-on-unavailable contract holds.
		Save: func(p string, data []byte, dirty bool) error {
			if !dirty {
				return e.SyncMetadata()
			}
			return e.SaveFile(p, data, false)
		},
		Retryable: IsUnavailable,
	}
	return fs
}

// API returns fs as an fsapi.FileSystem, whose Open returns the fsapi.File
// interface.
func (fs *FS) API() fsapi.FileSystem { return api{fs} }

type api struct{ *FS }

func (a api) Open(p string, flags int) (fsapi.File, error) {
	f, err := a.FS.Open(p, flags)
	if err != nil {
		return nil, err // not a nil *File in a non-nil interface
	}
	return f, nil
}

// Enclave exposes the underlying enclave for administrative operations
// (user and ACL management) and statistics.
func (fs *FS) Enclave() *enclave.Enclave { return fs.e }

// Mkdir creates one directory; the parent must exist.
func (fs *FS) Mkdir(p string) error { return fs.e.Mkdir(p) }

// MkdirAll creates a directory and any missing parents.
func (fs *FS) MkdirAll(p string) error {
	return fsapi.MkdirAll(p, fs.e.Mkdir, func(err error) bool { return errors.Is(err, enclave.ErrExists) })
}

// Touch creates an empty file; the parent directory must exist.
func (fs *FS) Touch(p string) error { return fs.e.Touch(p) }

// WriteFile writes data to the file at p, creating it if necessary.
func (fs *FS) WriteFile(p string, data []byte) error {
	defer fs.metrics.write.begin().end()
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
	defer fs.metrics.read.begin().end()
	return fs.e.ReadFile(p)
}

// Remove deletes a file, symlink, or empty directory.
func (fs *FS) Remove(p string) error { return fs.e.Remove(p) }

// RemoveAll deletes p and, for directories, everything beneath it. A
// missing path is not an error.
func (fs *FS) RemoveAll(p string) error {
	return fsapi.RemoveAll(fs, p, func(err error) bool { return errors.Is(err, enclave.ErrNotFound) })
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
	defer fs.metrics.setacl.begin().end()
	return fs.e.SetACL(dirPath, userName, rights)
}

// GetACL returns a directory's ACL keyed by username.
func (fs *FS) GetACL(dirPath string) (map[string]acl.Rights, error) {
	return fs.e.GetACL(dirPath)
}

// Open flags, those of fsapi.
const (
	O_RDONLY = fsapi.O_RDONLY
	O_RDWR   = fsapi.O_RDWR
	O_CREATE = fsapi.O_CREATE
	O_TRUNC  = fsapi.O_TRUNC
	O_APPEND = fsapi.O_APPEND
)

// File is an open-to-close handle on a NEXUS file, the shared
// fsapi.Handle: the file is fetched and decrypted once at Open, all reads
// and writes are local, and Sync and Close re-encrypt and store it and
// drain the enclave's write-back metadata, in one ecall — exactly the
// session semantics AFS gives the prototype (§VII-A). If Close fails
// because the store is unavailable (IsUnavailable), the handle stays open
// with its buffer intact, so Close (or Sync) can be retried once the
// service recovers.
type File struct {
	fsapi.Handle
	m *vfsMetrics
}

// Open opens the file at p.
func (fs *FS) Open(p string, flags int) (*File, error) {
	defer fs.metrics.open.begin().end()
	// The handle starts from the file as last committed by any client,
	// not from the snapshot a VersionedStore serves until it next reads
	// the root: Close writes the whole buffer back.
	if err := fs.e.Revalidate(); err != nil {
		return nil, err
	}
	f := &File{m: &fs.metrics}
	if err := f.Handle.Open(p, flags, &fs.backing); err != nil {
		return nil, err
	}
	return f, nil
}

// Sync encrypts and uploads dirty contents without closing the handle
// (fsync; the file's chunks are re-keyed, §VI-A).
func (f *File) Sync() error {
	defer f.m.sync.begin().end()
	return f.Handle.Sync()
}

// Close flushes dirty contents and invalidates the handle.
func (f *File) Close() error {
	defer f.m.close.begin().end()
	return f.Handle.Close()
}
