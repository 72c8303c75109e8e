// Package fsapi is the filesystem surface that every consumer in this
// repository — database engines, workload generators, Linux-utility
// reimplementations, and the benchmark harness — programs against: the
// open flags, DirEntry, the File and FileSystem interfaces, and Handle,
// the one open-to-close file handle.
//
// Two implementations exist:
//
//   - the NEXUS filesystem (internal/vfs, through vfs.FS.API), where every
//     operation passes through the enclave; and
//   - the plain baseline (internal/plainfs), modelling an unmodified
//     OpenAFS client where each file is one store object and operations
//     cost one RPC.
//
// Both hand out a Handle, so the two stacks differ only in what reaches
// the store. The paper's evaluation (§VII) is precisely a comparison of
// these two stacks under identical workloads.
package fsapi

import (
	"fmt"
	"io"
	"path"
	"strings"
	"sync"
)

// Open flags, a subset of the os package's. There is no O_WRONLY: a
// handle that writes is opened O_RDWR.
const (
	O_RDONLY = 0x0
	O_RDWR   = 0x2
	O_CREATE = 0x40
	O_TRUNC  = 0x200
	O_APPEND = 0x400
)

// DirEntry is a directory listing entry.
type DirEntry struct {
	Name string
	// IsDir reports directories; Symlink entries report their target.
	IsDir         bool
	IsSymlink     bool
	SymlinkTarget string
	Size          uint64
}

// File is an open file handle with AFS open-to-close semantics: all I/O
// is local between Open and Close; Sync/Close flush to the store.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	io.ReaderAt
	io.Closer
	// Sync flushes dirty contents without closing.
	Sync() error
	// Truncate resizes the file.
	Truncate(size int64) error
	// Size returns the current length.
	Size() int64
}

// FileSystem is the operation set exercised by the paper's workloads.
type FileSystem interface {
	Mkdir(path string) error
	MkdirAll(path string) error
	Touch(path string) error
	WriteFile(path string, data []byte) error
	ReadFile(path string) ([]byte, error)
	Remove(path string) error
	RemoveAll(path string) error
	Rename(oldPath, newPath string) error
	Symlink(target, linkPath string) error
	Stat(path string) (DirEntry, error)
	Exists(path string) (bool, error)
	ReadDir(path string) ([]DirEntry, error)
	Open(path string, flags int) (File, error)
}

// MkdirAll makes the directory p and each missing parent with mkdir, one
// call per path component from the root down; exists reports mkdir's
// error for a name already taken.
func MkdirAll(p string, mkdir func(string) error, exists func(error) bool) error {
	p = path.Clean("/" + p)
	if p == "/" {
		return nil
	}
	cur := ""
	for _, part := range strings.Split(p[1:], "/") {
		cur += "/" + part
		if err := mkdir(cur); err != nil && !exists(err) {
			return err
		}
	}
	return nil
}

// RemoveAll deletes p and, for a directory, everything beneath it, depth
// first; missing reports the Stat error of a path that names nothing,
// which is no error here.
func RemoveAll(fs interface {
	Stat(path string) (DirEntry, error)
	ReadDir(path string) ([]DirEntry, error)
	Remove(path string) error
}, p string, missing func(error) bool) error {
	st, err := fs.Stat(p)
	if missing(err) {
		return nil
	}
	if err != nil {
		return err
	}
	if st.IsDir {
		entries, err := fs.ReadDir(p)
		if err != nil {
			return err
		}
		for _, entry := range entries {
			if err := RemoveAll(fs, path.Join(p, entry.Name), missing); err != nil {
				return err
			}
		}
	}
	return fs.Remove(p)
}

// Backing is what a filesystem supplies to the handles it opens.
type Backing struct {
	// Read returns the contents of the file at path.
	Read func(path string) ([]byte, error)
	// Missing reports a Read error that says no file is at the path.
	Missing func(error) bool
	// Create makes an empty file at path, for an O_CREATE open of a
	// missing file.
	Create func(path string) error
	// Save stores data as the file's contents. dirty is false when the
	// handle holds nothing it has not saved; a filesystem may still make
	// that call a barrier.
	Save func(path string, data []byte, dirty bool) error
	// Retryable reports a Save error after which the handle's buffer is
	// the only copy of its data, so Close keeps the handle open.
	Retryable func(error) bool
}

// Handle is the open-to-close file handle both filesystems hand out, the
// session semantics AFS gives the prototype (§VII-A): Open reads the whole
// file into a buffer, every read and write is local, and Sync and Close
// save the buffer through the filesystem's Backing. If Close's save fails
// with a Retryable error the handle stays open with its buffer intact, so
// the caller can retry Close (or Sync) once the store recovers; any other
// failure closes it. After Close every method but Size and Close fails,
// and a second Close does nothing.
//
// Reads, writes, seeks and truncates behave as on an *os.File opened with
// the same flags, O_APPEND's write-at-the-end included, except where the
// handle deliberately differs:
//   - O_TRUNC needs O_RDWR: Open refuses O_RDONLY|O_TRUNC, which POSIX
//     leaves unspecified and Linux honours, because a read-only handle
//     never rewrites its file;
//   - Seek knows only io's three whence values, not Linux's SEEK_DATA
//     and SEEK_HOLE.
//
// The zero Handle is closed; Open opens it.
type Handle struct {
	b     *Backing
	path  string
	flags int

	mu    sync.Mutex
	buf   []byte // guarded by mu
	pos   int64  // guarded by mu
	dirty bool   // guarded by mu
	open  bool   // guarded by mu
}

var _ File = (*Handle)(nil)

// Open opens h on the file at path, reading it through b. With O_CREATE a
// missing file is made, empty, at the open, as open(2) does.
func (h *Handle) Open(path string, flags int, b *Backing) error {
	if flags&O_TRUNC != 0 && flags&O_RDWR == 0 {
		return fmt.Errorf("fsapi: open %s: O_TRUNC needs O_RDWR", path)
	}
	data, err := b.Read(path)
	created := false
	if err != nil {
		if flags&O_CREATE == 0 || !b.Missing(err) {
			return err
		}
		if err := b.Create(path); err != nil {
			return err
		}
		data, created = nil, true
	}
	if flags&O_TRUNC != 0 {
		data = nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.b, h.path, h.flags = b, path, flags
	h.buf, h.pos, h.open = data, 0, true
	h.dirty = flags&O_RDWR != 0 && (created || flags&O_TRUNC != 0)
	return nil
}

func (h *Handle) closedErr(op string) error {
	return fmt.Errorf("fsapi: %s of closed file %s", op, h.path)
}

// writableLocked returns the error a change to the handle gets, if any.
func (h *Handle) writableLocked(op string) error {
	if !h.open {
		return h.closedErr(op)
	}
	if h.flags&O_RDWR == 0 {
		return fmt.Errorf("fsapi: %s of %s, not open for writing", op, h.path)
	}
	return nil
}

// Read implements io.Reader.
func (h *Handle) Read(p []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.open {
		return 0, h.closedErr("read")
	}
	if len(p) == 0 {
		return 0, nil
	}
	if h.pos >= int64(len(h.buf)) {
		return 0, io.EOF
	}
	n := copy(p, h.buf[h.pos:])
	h.pos += int64(n)
	return n, nil
}

// ReadAt implements io.ReaderAt.
func (h *Handle) ReadAt(p []byte, off int64) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.open {
		return 0, h.closedErr("read")
	}
	if off < 0 {
		return 0, fmt.Errorf("fsapi: read of %s at negative offset %d", h.path, off)
	}
	n := 0
	if off < int64(len(h.buf)) {
		n = copy(p, h.buf[off:])
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// Write implements io.Writer. With O_APPEND every write goes to the end.
func (h *Handle) Write(p []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := h.writableLocked("write"); err != nil {
		return 0, err
	}
	if len(p) == 0 {
		return 0, nil
	}
	if h.flags&O_APPEND != 0 {
		h.pos = int64(len(h.buf))
	}
	end := h.pos + int64(len(p))
	h.growLocked(end)
	copy(h.buf[h.pos:end], p)
	h.pos = end
	h.dirty = true
	return len(p), nil
}

// growLocked zero-extends the buffer to size bytes if it is shorter.
func (h *Handle) growLocked(size int64) {
	if size > int64(len(h.buf)) {
		grown := make([]byte, size)
		copy(grown, h.buf)
		h.buf = grown
	}
}

// Seek implements io.Seeker.
func (h *Handle) Seek(offset int64, whence int) (int64, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.open {
		return 0, h.closedErr("seek")
	}
	var base int64
	switch whence {
	case io.SeekStart:
	case io.SeekCurrent:
		base = h.pos
	case io.SeekEnd:
		base = int64(len(h.buf))
	default:
		return 0, fmt.Errorf("fsapi: bad whence %d", whence)
	}
	pos := base + offset
	if pos < 0 {
		return 0, fmt.Errorf("fsapi: negative seek position")
	}
	h.pos = pos
	return pos, nil
}

// Truncate resizes the buffered contents, zero-extending them.
func (h *Handle) Truncate(size int64) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := h.writableLocked("truncate"); err != nil {
		return err
	}
	if size < 0 {
		return fmt.Errorf("fsapi: negative truncate size")
	}
	if size < int64(len(h.buf)) {
		h.buf = h.buf[:size]
	}
	h.growLocked(size)
	h.dirty = true
	return nil
}

// Size returns the buffered length.
func (h *Handle) Size() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return int64(len(h.buf))
}

// Sync saves the buffer without closing the handle.
func (h *Handle) Sync() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.open {
		return h.closedErr("sync")
	}
	return h.saveLocked()
}

func (h *Handle) saveLocked() error {
	if err := h.b.Save(h.path, h.buf, h.dirty); err != nil {
		return err
	}
	h.dirty = false
	return nil
}

// Close saves the buffer and closes the handle, unless the save fails
// with a Retryable error.
func (h *Handle) Close() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.open {
		return nil
	}
	err := h.saveLocked()
	if err != nil && h.b.Retryable(err) {
		return err
	}
	h.open = false
	h.buf = nil
	return err
}
