package fsapi_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	mrand "math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"nexus/internal/backend"
	"nexus/internal/fsapi"
	"nexus/internal/vfs"
)

// TestFileHandle runs each handle case over both implementations: they
// build one fsapi.Handle, so each must pass every row the same way.
func TestFileHandle(t *testing.T) {
	for _, row := range []struct {
		name string
		run  func(t *testing.T, fs fsapi.FileSystem, notFound error)
	}{
		{"ReadWrite", handleReadWrite},
		{"OpenSemantics", handleOpenSemantics},
		{"SyncVisibility", handleSyncVisibility},
		{"TruncateAndReadAt", handleTruncateAndReadAt},
		{"SyncSeekTruncate", handleSyncSeekTruncate},
	} {
		t.Run(row.name, func(t *testing.T) {
			for name, fs := range implementations(t) {
				t.Run(name, func(t *testing.T) { row.run(t, fs, notFound[name]) })
			}
		})
	}
}

func handleReadWrite(t *testing.T, fs fsapi.FileSystem, _ error) {
	f, err := fs.Open("/file", fsapi.O_RDWR|fsapi.O_CREATE)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := f.Write([]byte("hello world")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen and read.
	f, err = fs.Open("/file", fsapi.O_RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(f)
	if err != nil || string(got) != "hello world" {
		t.Fatalf("ReadAll = %q, %v", got, err)
	}
	// Seek and partial read.
	if _, err := f.Seek(6, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if n, err := f.Read(buf); err != nil || n != 5 || string(buf) != "world" {
		t.Fatalf("Read after Seek = %q, %d, %v", buf, n, err)
	}
	if _, err := f.Read(buf); !errors.Is(err, io.EOF) {
		t.Fatalf("Read at EOF = %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func handleOpenSemantics(t *testing.T, fs fsapi.FileSystem, notFound error) {
	if err := fs.WriteFile("/f", []byte("original")); err != nil {
		t.Fatal(err)
	}

	// O_TRUNC discards contents.
	f, err := fs.Open("/f", fsapi.O_RDWR|fsapi.O_TRUNC)
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != 0 {
		t.Fatalf("Size after O_TRUNC = %d", f.Size())
	}
	if _, err := f.Write([]byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// O_APPEND writes at EOF.
	f, err = fs.Open("/f", fsapi.O_RDWR|fsapi.O_APPEND)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("+more")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/f")
	if err != nil || string(got) != "new+more" {
		t.Fatalf("after append = %q, %v", got, err)
	}

	// Missing file without O_CREATE: an error and no handle, not a nil
	// handle in a non-nil interface.
	if f, err := fs.Open("/missing", fsapi.O_RDONLY); !errors.Is(err, notFound) || f != nil {
		t.Fatalf("Open missing = %v, %v", f, err)
	}
	// Read-only handle rejects writes.
	f, err = fs.Open("/f", fsapi.O_RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("x")); err == nil {
		t.Fatal("write on O_RDONLY handle accepted")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func handleSyncVisibility(t *testing.T, fs fsapi.FileSystem, _ error) {
	f, err := fs.Open("/db.log", fsapi.O_RDWR|fsapi.O_CREATE)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("record1")); err != nil {
		t.Fatal(err)
	}
	// Before Sync the store holds the old (empty) contents.
	got, err := fs.ReadFile("/db.log")
	if err != nil || len(got) != 0 {
		t.Fatalf("pre-sync read = %q, %v", got, err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	got, err = fs.ReadFile("/db.log")
	if err != nil || string(got) != "record1" {
		t.Fatalf("post-sync read = %q, %v", got, err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func handleTruncateAndReadAt(t *testing.T, fs fsapi.FileSystem, _ error) {
	f, err := fs.Open("/f", fsapi.O_RDWR|fsapi.O_CREATE)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(4); err != nil {
		t.Fatal(err)
	}
	if f.Size() != 4 {
		t.Fatalf("Size after truncate = %d", f.Size())
	}
	if err := f.Truncate(8); err != nil { // zero-extend
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := f.ReadAt(buf, 2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, []byte{'2', '3', 0, 0}) {
		t.Fatalf("ReadAt = %v", buf)
	}
	if _, err := f.ReadAt(buf, 100); !errors.Is(err, io.EOF) {
		t.Fatalf("ReadAt past EOF = %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// Operations on closed handles fail cleanly.
	if _, err := f.Read(buf); err == nil {
		t.Fatal("read of closed handle accepted")
	}
	if err := f.Close(); err != nil {
		t.Fatalf("double close = %v", err)
	}
}

func handleSyncSeekTruncate(t *testing.T, fs fsapi.FileSystem, notFound error) {
	f, err := fs.Open("/f", fsapi.O_RDWR|fsapi.O_CREATE)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/f")
	if err != nil || string(got) != "abcdef" {
		t.Fatalf("post-sync = %q, %v", got, err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3)
	if _, err := f.Read(buf); err != nil || !bytes.Equal(buf, []byte("abc")) {
		t.Fatalf("Read = %q, %v", buf, err)
	}
	if err := f.Truncate(2); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err = fs.ReadFile("/f")
	if err != nil || string(got) != "ab" {
		t.Fatalf("post-close = %q, %v", got, err)
	}
	if _, err := fs.Open("/nope", fsapi.O_RDONLY); !errors.Is(err, notFound) {
		t.Fatalf("Open(missing) = %v", err)
	}
}

// TestReadOnlyHandleChangesNothing: a handle opened O_RDONLY refuses
// every change, and its Close leaves the file as it was.
func TestReadOnlyHandleChangesNothing(t *testing.T) {
	for name, fs := range implementations(t) {
		t.Run(name, func(t *testing.T) {
			if err := fs.WriteFile("/f", []byte("precious")); err != nil {
				t.Fatal(err)
			}
			f, err := fs.Open("/f", fsapi.O_RDONLY)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Truncate(0); err == nil {
				t.Error("Truncate on a read-only handle = nil, want an error")
			}
			if _, err := f.Write([]byte("x")); err == nil {
				t.Error("Write on a read-only handle = nil, want an error")
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			if got, err := fs.ReadFile("/f"); err != nil || string(got) != "precious" {
				t.Fatalf("ReadFile(/f) = %q, %v, want precious", got, err)
			}
		})
	}
}

// putFailStore fails every Put with putErr while it is set, as the AFS
// client does when its server is unreachable.
type putFailStore struct {
	backend.Store

	mu     sync.Mutex
	putErr error // guarded by mu
}

func (s *putFailStore) fail(err error) {
	s.mu.Lock()
	s.putErr = err
	s.mu.Unlock()
}

func (s *putFailStore) Put(name string, data []byte) error {
	s.mu.Lock()
	err := s.putErr
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return s.Store.Put(name, data)
}

// TestCloseRetryableWhileStoreUnavailable: an open handle must survive a
// Close that fails on an unavailable store: the buffered data is the only
// copy, so the handle stays open and a later Close succeeds once the
// service recovers.
func TestCloseRetryableWhileStoreUnavailable(t *testing.T) {
	for _, name := range []string{"nexus", "plainfs"} {
		t.Run(name, func(t *testing.T) {
			flaky := &putFailStore{Store: backend.NewMemStore()}
			fs := over(t, name, flaky)
			f, err := fs.Open("/doc", fsapi.O_CREATE|fsapi.O_RDWR)
			if err != nil {
				t.Fatal(err)
			}
			data := []byte("must not be lost to a flaky network")
			if _, err := f.Write(data); err != nil {
				t.Fatal(err)
			}

			flaky.fail(backend.ErrInterrupted)
			err = f.Close()
			if err == nil {
				t.Fatal("close through a dead store succeeded")
			}
			if !vfs.IsUnavailable(err) {
				t.Fatalf("close error not classified unavailable: %v", err)
			}
			if f.Size() != int64(len(data)) {
				t.Fatalf("failed close discarded the buffer: size %d", f.Size())
			}

			// The service heals; the same handle closes cleanly and the
			// data is durable.
			flaky.fail(nil)
			if err := f.Close(); err != nil {
				t.Fatalf("close after recovery: %v", err)
			}
			got, err := fs.ReadFile("/doc")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("read back %q, want %q", got, data)
			}
		})
	}
}

// memBacking is a Backing over a map of file contents.
func memBacking(files map[string][]byte) *fsapi.Backing {
	missing := errors.New("no such file")
	return &fsapi.Backing{
		Read: func(p string) ([]byte, error) {
			data, ok := files[p]
			if !ok {
				return nil, fmt.Errorf("%w: %s", missing, p)
			}
			return bytes.Clone(data), nil
		},
		Missing: func(err error) bool { return errors.Is(err, missing) },
		Create: func(p string) error {
			files[p] = []byte{}
			return nil
		},
		Save: func(p string, data []byte, dirty bool) error {
			if dirty {
				files[p] = bytes.Clone(data)
			}
			return nil
		},
		Retryable: func(error) bool { return false },
	}
}

// osFlags maps fsapi's open flags to the os package's.
func osFlags(flags int) int {
	out := os.O_RDONLY
	for from, to := range map[int]int{
		fsapi.O_RDWR: os.O_RDWR, fsapi.O_CREATE: os.O_CREATE,
		fsapi.O_TRUNC: os.O_TRUNC, fsapi.O_APPEND: os.O_APPEND,
	} {
		if flags&from != 0 {
			out |= to
		}
	}
	return out
}

// TestHandleMatchesOSFile runs one seeded sequence of Read, ReadAt, Write,
// Seek, Truncate, Size and Sync on a Handle and on an *os.File opened with
// the same flags, and compares the bytes each returns, the offsets, the
// sizes and whether each call errs (io.EOF apart from other errors). What
// reaches a store at Sync or Close is not its business. The deviations
// the Handle's doc comment names are checked as deviations, by name.
func TestHandleMatchesOSFile(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			compareWithOSFile(t, seed, 120)
		})
	}
}

func compareWithOSFile(t *testing.T, seed int64, steps int) {
	rng := mrand.New(mrand.NewSource(seed))
	randBytes := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	osPath := filepath.Join(t.TempDir(), "f")
	files := map[string][]byte{}
	if rng.Intn(5) > 0 {
		initial := randBytes(rng.Intn(40))
		files["/f"] = initial
		if err := os.WriteFile(osPath, initial, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	flags := fsapi.O_RDONLY
	for _, bit := range []int{fsapi.O_RDWR, fsapi.O_CREATE, fsapi.O_TRUNC, fsapi.O_APPEND} {
		if rng.Intn(2) == 0 {
			flags |= bit
		}
	}

	var h fsapi.Handle
	hErr := h.Open("/f", flags, memBacking(files))
	if flags&fsapi.O_TRUNC != 0 && flags&fsapi.O_RDWR == 0 {
		// Deviation: O_TRUNC needs O_RDWR.
		if hErr == nil {
			t.Fatalf("flags %#x: Open with O_TRUNC but not O_RDWR = nil, want an error", flags)
		}
		return
	}
	o, oErr := os.OpenFile(osPath, osFlags(flags), 0o600)
	if (hErr == nil) != (oErr == nil) {
		t.Fatalf("flags %#x: Open = %v, os.OpenFile = %v", flags, hErr, oErr)
	}
	if oErr != nil {
		return
	}
	defer o.Close()
	// Deviation: Seek knows only io's three whence values.
	if _, err := h.Seek(0, 3); err == nil {
		t.Fatal("Seek with whence 3 = nil, want an error")
	}

	same := func(step int, what string, hn, on int64, he, oe error) {
		t.Helper()
		if hn != on || (he == nil) != (oe == nil) || errors.Is(he, io.EOF) != errors.Is(oe, io.EOF) {
			t.Fatalf("flags %#x, step %d: %s: handle (%d, %v), os.File (%d, %v)", flags, step, what, hn, he, on, oe)
		}
	}
	for step := 0; step < steps; step++ {
		size := h.Size()
		switch op := rng.Intn(7); op {
		case 0:
			n := rng.Intn(16)
			hb, ob := make([]byte, n), make([]byte, n)
			hn, he := h.Read(hb)
			on, oe := o.Read(ob)
			same(step, fmt.Sprintf("Read(%d)", len(hb)), int64(hn), int64(on), he, oe)
			if !bytes.Equal(hb[:hn], ob[:on]) {
				t.Fatalf("flags %#x, step %d: Read bytes %x, os.File %x", flags, step, hb[:hn], ob[:on])
			}
		case 1:
			off := rng.Int63n(size+12) - 2
			n := rng.Intn(16)
			hb, ob := make([]byte, n), make([]byte, n)
			hn, he := h.ReadAt(hb, off)
			on, oe := o.ReadAt(ob, off)
			same(step, fmt.Sprintf("ReadAt(%d, %d)", len(hb), off), int64(hn), int64(on), he, oe)
			if !bytes.Equal(hb[:hn], ob[:on]) {
				t.Fatalf("flags %#x, step %d: ReadAt bytes %x, os.File %x", flags, step, hb[:hn], ob[:on])
			}
		case 2:
			p := randBytes(rng.Intn(16))
			hn, he := h.Write(p)
			on, oe := o.Write(p)
			same(step, fmt.Sprintf("Write(%d)", len(p)), int64(hn), int64(on), he, oe)
		case 3:
			whence := rng.Intn(3)
			offset := rng.Int63n(size+16) - 8
			hn, he := h.Seek(offset, whence)
			on, oe := o.Seek(offset, whence)
			same(step, fmt.Sprintf("Seek(%d, %d)", offset, whence), hn, on, he, oe)
		case 4:
			n := rng.Int63n(size+12) - 2
			he, oe := h.Truncate(n), o.Truncate(n)
			same(step, fmt.Sprintf("Truncate(%d)", n), 0, 0, he, oe)
		case 5:
			he, oe := h.Sync(), o.Sync()
			same(step, "Sync", 0, 0, he, oe)
		case 6:
			st, err := o.Stat()
			if err != nil {
				t.Fatal(err)
			}
			same(step, "Size", size, st.Size(), nil, nil)
		}
		// Every call leaves both at the same offset.
		hn, he := h.Seek(0, io.SeekCurrent)
		on, oe := o.Seek(0, io.SeekCurrent)
		same(step, "offset", hn, on, he, oe)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(osPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(files["/f"], want) {
		t.Fatalf("flags %#x: the handle left %x, the os.File %x", flags, files["/f"], want)
	}
}
