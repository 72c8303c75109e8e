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
	"path"
	"sort"
	"strings"

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
	// ErrNotFile reports a kind mismatch.
	ErrNotFile = errors.New("plainfs: not a file")
	// ErrNotDir reports a path below a file or symlink.
	ErrNotDir = errors.New("plainfs: not a directory")
)

// FS is the baseline filesystem over a backend.Store.
type FS struct {
	store   backend.Store
	backing fsapi.Backing // what every handle reads, creates and saves through
}

var _ fsapi.FileSystem = (*FS)(nil)

// New returns a baseline filesystem over store.
func New(store backend.Store) *FS {
	fs := &FS{store: store}
	fs.backing = fsapi.Backing{
		Read: fs.ReadFile,
		// ReadFile reports a directory or symlink as missing too; Touch
		// refuses those with ErrExists.
		Missing: func(err error) bool { return errors.Is(err, ErrNotFound) },
		Create:  fs.Touch,
		// A handle saves over its file only: one removed or moved since the
		// open stays gone, as on NEXUS.
		Save: func(p string, data []byte, dirty bool) error {
			if !dirty {
				return nil
			}
			if _, err := fs.ReadFile(p); err != nil {
				return err
			}
			return fs.store.Put(fileObj(p), data)
		},
		Retryable: backend.IsUnavailable,
	}
	return fs
}

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
	return fsapi.MkdirAll(p, fs.Mkdir, func(err error) bool { return errors.Is(err, ErrExists) })
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
	return fsapi.RemoveAll(fs, p, func(err error) bool { return errors.Is(err, ErrNotFound) })
}

// Rename moves a file, symlink or directory (directories move all
// descendants — one rename per contained object, matching a server-side
// tree rename's client-visible cost only loosely; the paper's mv test
// renames files). As on NEXUS, it replaces a file or symlink at newPath
// and refuses a directory there.
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
	// File or symlink: one object, put under the new name over whatever
	// file or symlink held it.
	for _, kind := range []struct{ obj, other func(string) string }{{fileObj, linkObj}, {linkObj, fileObj}} {
		data, err := fs.store.Get(kind.obj(oldPath))
		if errors.Is(err, backend.ErrNotExist) {
			continue
		} else if err != nil {
			return err
		}
		if err := fs.clearDestination(newPath, kind.other); err != nil {
			return err
		}
		if err := fs.store.Put(kind.obj(newPath), data); err != nil {
			return err
		}
		return fs.store.Delete(kind.obj(oldPath))
	}
	// Directory subtree.
	if ok, err := fs.isDir(oldPath); err != nil {
		return err
	} else if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, oldPath)
	}
	if err := fs.clearDestination(newPath, fileObj, linkObj); err != nil {
		return err
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

// clearDestination makes newPath free for a rename: a directory there
// refuses it, and the object of each kind in stale there is deleted. The
// moved object's own kind is not among them: its put replaces it.
func (fs *FS) clearDestination(newPath string, stale ...func(string) string) error {
	if isDir, err := fs.isDir(newPath); err != nil {
		return err
	} else if isDir {
		return fmt.Errorf("%w: destination %s is a directory", ErrExists, newPath)
	}
	for _, obj := range stale {
		if err := fs.store.Delete(obj(newPath)); err != nil && !errors.Is(err, backend.ErrNotExist) {
			return err
		}
	}
	return nil
}

// Symlink records a symbolic link.
func (fs *FS) Symlink(target, linkPath string) error {
	if target == "" {
		return fmt.Errorf("plainfs: empty symlink target")
	}
	if ok, err := fs.isDir(path.Dir(path.Clean("/" + linkPath))); err != nil {
		return err
	} else if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, path.Dir(linkPath))
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
	return fsapi.DirEntry{}, fs.missing(p)
}

// missing explains a path nothing is stored under: ErrNotDir when one of
// its ancestors is a file or symlink, as NEXUS's walk reports it, and
// ErrNotFound otherwise. Every ancestor of a stored object is a
// directory, so the nearest ancestor that is one ends the search.
func (fs *FS) missing(p string) error {
	for q := path.Dir(path.Clean("/" + p)); q != "/"; q = path.Dir(q) {
		if ok, err := fs.isDir(q); err != nil {
			return err
		} else if ok {
			break
		}
		for _, obj := range []func(string) string{fileObj, linkObj} {
			if _, err := fs.store.Get(obj(q)); err == nil {
				return fmt.Errorf("%w: %s", ErrNotDir, q)
			} else if !errors.Is(err, backend.ErrNotExist) {
				return err
			}
		}
	}
	return fmt.Errorf("%w: %s", ErrNotFound, p)
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

// Open returns the open-to-close handle NEXUS hands out too. With
// O_CREATE a missing file is made, empty, at the open. Close keeps the
// handle open when the store is unavailable (backend.IsUnavailable), so it
// can be retried.
func (fs *FS) Open(p string, flags int) (fsapi.File, error) {
	h := new(fsapi.Handle)
	if err := h.Open(p, flags, &fs.backing); err != nil {
		return nil, err
	}
	return h, nil
}
