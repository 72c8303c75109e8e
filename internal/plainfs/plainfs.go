// Package plainfs models an unmodified distributed-filesystem client —
// the "OpenAFS" baseline of the paper's evaluation (§VII).
//
// Files map one-to-one onto store objects named by their escaped path;
// directories are marker objects so empty directories exist and listings
// are served by prefix scans. Every operation therefore costs what the
// underlying store charges (one RPC when stacked on the AFS client,
// nothing when on a memory store), with none of NEXUS's metadata or
// cryptography — exactly the baseline the paper compares against.
package plainfs

import (
	"errors"
	"fmt"
	"io"
	"path"
	"sort"
	"strings"
	"sync"

	"nexus/internal/backend"
	"nexus/internal/fsapi"
)

// Name-mangling scheme: object names cannot contain '/', so path
// separators become '#' (and literal '#' and '%' are escaped). Directory
// markers carry a trailing separator.
const (
	sep       = "#"
	dirMarker = "#dir"
	filePre   = "f"
	linkPre   = "l"
)

func escape(p string) string {
	p = path.Clean("/" + p)
	if p == "/" {
		return ""
	}
	s := strings.TrimPrefix(p, "/")
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "#", "%23")
	return strings.ReplaceAll(s, "/", sep)
}

// Errors.
var (
	// ErrNotFound reports a missing path.
	ErrNotFound = errors.New("plainfs: no such file or directory")
	// ErrExists reports a create collision.
	ErrExists = errors.New("plainfs: entry already exists")
	// ErrNotEmpty reports a non-empty directory removal.
	ErrNotEmpty = errors.New("plainfs: directory not empty")
	// ErrNotDir and ErrNotFile report kind mismatches.
	ErrNotDir  = errors.New("plainfs: not a directory")
	ErrNotFile = errors.New("plainfs: not a file")
)

// FS is the baseline filesystem over a backend.Store.
type FS struct {
	store backend.Store
}

var _ fsapi.FileSystem = (*FS)(nil)

// New returns a baseline filesystem over store.
func New(store backend.Store) *FS { return &FS{store: store} }

func fileObj(p string) string { return filePre + sep + escape(p) }
func dirObj(p string) string  { return dirMarker + sep + escape(p) }
func linkObj(p string) string { return linkPre + sep + escape(p) }

// Mkdir creates one directory.
func (fs *FS) Mkdir(p string) error {
	clean := path.Clean("/" + p)
	if clean == "/" {
		return nil
	}
	if ok, err := fs.isDir(path.Dir(clean)); err != nil {
		return err
	} else if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, path.Dir(clean))
	}
	if exists, err := fs.Exists(clean); err != nil {
		return err
	} else if exists {
		return fmt.Errorf("%w: %s", ErrExists, clean)
	}
	return fs.store.Put(dirObj(clean), nil)
}

// MkdirAll creates a directory and missing parents.
func (fs *FS) MkdirAll(p string) error {
	clean := path.Clean("/" + p)
	if clean == "/" {
		return nil
	}
	parts := strings.Split(strings.Trim(clean, "/"), "/")
	cur := ""
	for _, part := range parts {
		cur += "/" + part
		if err := fs.Mkdir(cur); err != nil && !errors.Is(err, ErrExists) {
			return err
		}
	}
	return nil
}

func (fs *FS) isDir(p string) (bool, error) {
	if path.Clean("/"+p) == "/" {
		return true, nil
	}
	_, err := fs.store.Get(dirObj(p))
	if errors.Is(err, backend.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, nil
}

// Touch creates an empty file.
func (fs *FS) Touch(p string) error {
	if ok, err := fs.isDir(path.Dir(path.Clean("/" + p))); err != nil {
		return err
	} else if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, path.Dir(p))
	}
	if exists, err := fs.Exists(p); err != nil {
		return err
	} else if exists {
		return fmt.Errorf("%w: %s", ErrExists, p)
	}
	return fs.store.Put(fileObj(p), nil)
}

// WriteFile writes (creating if needed). Writing over a directory or
// symlink name fails, as it does on a POSIX filesystem.
func (fs *FS) WriteFile(p string, data []byte) error {
	if ok, err := fs.isDir(path.Dir(path.Clean("/" + p))); err != nil {
		return err
	} else if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, path.Dir(p))
	}
	if ok, err := fs.isDir(p); err != nil {
		return err
	} else if ok {
		return fmt.Errorf("%w: %s is a directory", ErrNotFile, p)
	}
	if _, err := fs.store.Get(linkObj(p)); err == nil {
		return fmt.Errorf("%w: %s is a symlink", ErrNotFile, p)
	} else if !errors.Is(err, backend.ErrNotExist) {
		return err
	}
	return fs.store.Put(fileObj(p), data)
}

// ReadFile returns a file's contents.
func (fs *FS) ReadFile(p string) ([]byte, error) {
	data, err := fs.store.Get(fileObj(p))
	if errors.Is(err, backend.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, p)
	}
	return data, err
}

// Remove deletes a file, symlink, or empty directory.
func (fs *FS) Remove(p string) error {
	if err := fs.store.Delete(fileObj(p)); err == nil {
		return nil
	} else if !errors.Is(err, backend.ErrNotExist) {
		return err
	}
	if err := fs.store.Delete(linkObj(p)); err == nil {
		return nil
	} else if !errors.Is(err, backend.ErrNotExist) {
		return err
	}
	// Directory: must be empty.
	if ok, err := fs.isDir(p); err != nil {
		return err
	} else if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, p)
	}
	entries, err := fs.ReadDir(p)
	if err != nil {
		return err
	}
	if len(entries) != 0 {
		return fmt.Errorf("%w: %s", ErrNotEmpty, p)
	}
	return fs.store.Delete(dirObj(p))
}

// RemoveAll deletes p recursively; missing paths are fine.
func (fs *FS) RemoveAll(p string) error {
	exists, err := fs.Exists(p)
	if err != nil {
		return err
	}
	if !exists {
		return nil
	}
	st, err := fs.Stat(p)
	if err != nil {
		return err
	}
	if st.IsDir {
		entries, err := fs.ReadDir(p)
		if err != nil {
			return err
		}
		for _, entry := range entries {
			if err := fs.RemoveAll(path.Join(p, entry.Name)); err != nil {
				return err
			}
		}
	}
	return fs.Remove(p)
}

// Rename moves a file or directory (directories move all descendants —
// one rename per contained object, matching a server-side tree rename's
// client-visible cost only loosely; the paper's mv test renames files).
func (fs *FS) Rename(oldPath, newPath string) error {
	if path.Clean("/"+oldPath) == path.Clean("/"+newPath) {
		// Renaming onto itself is a no-op (it must not delete the file).
		if ok, err := fs.Exists(oldPath); err != nil {
			return err
		} else if !ok {
			return fmt.Errorf("%w: %s", ErrNotFound, oldPath)
		}
		return nil
	}
	// A directory moved below itself would leave root's reach (rename(2)'s
	// EINVAL).
	if strings.HasPrefix(path.Clean("/"+newPath), path.Clean("/"+oldPath)+"/") {
		return fmt.Errorf("plainfs: cannot move %s below itself, to %s", oldPath, newPath)
	}
	// The destination's parent must be an existing directory.
	if ok, err := fs.isDir(path.Dir(path.Clean("/" + newPath))); err != nil {
		return err
	} else if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, path.Dir(newPath))
	}
	// File?
	if data, err := fs.store.Get(fileObj(oldPath)); err == nil {
		if isDir, err := fs.isDir(newPath); err != nil {
			return err
		} else if isDir {
			return fmt.Errorf("%w: %s", ErrExists, newPath)
		}
		if err := fs.store.Put(fileObj(newPath), data); err != nil {
			return err
		}
		return fs.store.Delete(fileObj(oldPath))
	}
	// Symlink?
	if data, err := fs.store.Get(linkObj(oldPath)); err == nil {
		if err := fs.store.Put(linkObj(newPath), data); err != nil {
			return err
		}
		return fs.store.Delete(linkObj(oldPath))
	}
	// Directory subtree.
	if ok, err := fs.isDir(oldPath); err != nil {
		return err
	} else if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, oldPath)
	}
	oldEsc, newEsc := escape(oldPath), escape(newPath)
	for _, prefix := range []string{filePre + sep, linkPre + sep, dirMarker + sep} {
		names, err := fs.store.List(prefix + oldEsc)
		if err != nil {
			return err
		}
		for _, name := range names {
			tail := strings.TrimPrefix(name, prefix+oldEsc)
			if tail != "" && !strings.HasPrefix(tail, sep) {
				continue // sibling sharing the prefix
			}
			data, err := fs.store.Get(name)
			if err != nil {
				return err
			}
			if err := fs.store.Put(prefix+newEsc+tail, data); err != nil {
				return err
			}
			if err := fs.store.Delete(name); err != nil {
				return err
			}
		}
	}
	return nil
}

// Symlink records a symbolic link.
func (fs *FS) Symlink(target, linkPath string) error {
	if target == "" {
		return fmt.Errorf("plainfs: empty symlink target")
	}
	if exists, err := fs.Exists(linkPath); err != nil {
		return err
	} else if exists {
		return fmt.Errorf("%w: %s", ErrExists, linkPath)
	}
	return fs.store.Put(linkObj(linkPath), []byte(target))
}

// Stat describes the entry at p.
func (fs *FS) Stat(p string) (fsapi.DirEntry, error) {
	name := path.Base(path.Clean("/" + p))
	if data, err := fs.store.Get(fileObj(p)); err == nil {
		return fsapi.DirEntry{Name: name, Size: uint64(len(data))}, nil
	}
	if data, err := fs.store.Get(linkObj(p)); err == nil {
		return fsapi.DirEntry{Name: name, IsSymlink: true, SymlinkTarget: string(data)}, nil
	}
	if ok, err := fs.isDir(p); err != nil {
		return fsapi.DirEntry{}, err
	} else if ok {
		return fsapi.DirEntry{Name: name, IsDir: true}, nil
	}
	return fsapi.DirEntry{}, fmt.Errorf("%w: %s", ErrNotFound, p)
}

// Exists reports whether p names anything.
func (fs *FS) Exists(p string) (bool, error) {
	_, err := fs.Stat(p)
	if errors.Is(err, ErrNotFound) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, nil
}

// ReadDir lists the immediate children of p, sorted.
func (fs *FS) ReadDir(p string) ([]fsapi.DirEntry, error) {
	if ok, err := fs.isDir(p); err != nil {
		return nil, err
	} else if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, p)
	}
	esc := escape(p)
	prefixTail := esc
	if prefixTail != "" {
		prefixTail += sep
	}
	seen := make(map[string]fsapi.DirEntry)
	for _, pre := range []string{filePre + sep, linkPre + sep, dirMarker + sep} {
		names, err := fs.store.List(pre + prefixTail)
		if err != nil {
			return nil, err
		}
		for _, name := range names {
			tail := strings.TrimPrefix(name, pre+prefixTail)
			if tail == "" || strings.Contains(tail, sep) {
				continue // the dir itself, or a deeper descendant
			}
			display := strings.ReplaceAll(strings.ReplaceAll(tail, "%23", "#"), "%25", "%")
			switch pre {
			case filePre + sep:
				seen[display] = fsapi.DirEntry{Name: display}
			case linkPre + sep:
				seen[display] = fsapi.DirEntry{Name: display, IsSymlink: true}
			default:
				seen[display] = fsapi.DirEntry{Name: display, IsDir: true}
			}
		}
	}
	out := make([]fsapi.DirEntry, 0, len(seen))
	for _, entry := range seen {
		out = append(out, entry)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Open returns an open-to-close handle, mirroring the AFS session
// semantics the NEXUS handle provides. With O_CREATE a missing file is
// made, empty, at the open, as NEXUS's Open does.
func (fs *FS) Open(p string, flags int) (fsapi.File, error) {
	f := &file{fs: fs, path: p, flags: flags, open: true}
	data, err := fs.ReadFile(p)
	switch {
	case err == nil:
		if flags&fsapi.O_TRUNC == 0 {
			f.buf = data
		} else {
			f.dirty = true
		}
	case errors.Is(err, ErrNotFound) && flags&fsapi.O_CREATE != 0:
		if err := fs.Touch(p); err != nil && !errors.Is(err, ErrExists) {
			return nil, err
		}
		f.dirty = true
	default:
		return nil, err
	}
	if flags&fsapi.O_APPEND != 0 {
		f.pos = int64(len(f.buf))
	}
	return f, nil
}

// file implements fsapi.File for the baseline.
type file struct {
	fs    *FS
	path  string
	flags int

	mu    sync.Mutex
	buf   []byte
	pos   int64
	dirty bool
	open  bool
}

func (f *file) Read(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.open {
		return 0, fmt.Errorf("plainfs: read of closed file %s", f.path)
	}
	if f.pos >= int64(len(f.buf)) {
		return 0, io.EOF
	}
	n := copy(p, f.buf[f.pos:])
	f.pos += int64(n)
	return n, nil
}

func (f *file) ReadAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.open {
		return 0, fmt.Errorf("plainfs: read of closed file %s", f.path)
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

func (f *file) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.open {
		return 0, fmt.Errorf("plainfs: write to closed file %s", f.path)
	}
	if f.flags&fsapi.O_RDWR == 0 && f.flags&fsapi.O_APPEND == 0 {
		return 0, fmt.Errorf("plainfs: file %s not open for writing", f.path)
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

func (f *file) Seek(offset int64, whence int) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.open {
		return 0, fmt.Errorf("plainfs: seek in closed file %s", f.path)
	}
	var base int64
	switch whence {
	case io.SeekStart:
	case io.SeekCurrent:
		base = f.pos
	case io.SeekEnd:
		base = int64(len(f.buf))
	default:
		return 0, fmt.Errorf("plainfs: bad whence %d", whence)
	}
	pos := base + offset
	if pos < 0 {
		return 0, fmt.Errorf("plainfs: negative seek position")
	}
	f.pos = pos
	return pos, nil
}

func (f *file) Truncate(size int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.open {
		return fmt.Errorf("plainfs: truncate of closed file %s", f.path)
	}
	if size < 0 {
		return fmt.Errorf("plainfs: negative truncate size")
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

func (f *file) Size() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return int64(len(f.buf))
}

func (f *file) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.open {
		return fmt.Errorf("plainfs: sync of closed file %s", f.path)
	}
	return f.syncLocked()
}

func (f *file) syncLocked() error {
	if !f.dirty {
		return nil
	}
	if err := f.fs.WriteFile(f.path, f.buf); err != nil {
		return err
	}
	f.dirty = false
	return nil
}

func (f *file) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.open {
		return nil
	}
	err := f.syncLocked()
	f.open = false
	f.buf = nil
	return err
}
