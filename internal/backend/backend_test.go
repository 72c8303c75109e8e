package backend

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// storeUnderTest enumerates the implementations that must satisfy the
// Store contract identically.
func storesUnderTest(t *testing.T) map[string]Store {
	t.Helper()
	dir, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatalf("NewDirStore: %v", err)
	}
	return map[string]Store{
		"mem": NewMemStore(),
		"dir": dir,
	}
}

func TestStoreContract(t *testing.T) {
	for name, s := range storesUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			testStoreContract(t, s)
		})
	}
}

func testStoreContract(t *testing.T, s Store) {
	// Absent object.
	if _, err := s.Get("missing"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("Get(missing) = %v, want ErrNotExist", err)
	}
	if err := s.Delete("missing"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("Delete(missing) = %v, want ErrNotExist", err)
	}

	// Round trip.
	want := []byte("object contents")
	if err := s.Put("obj1", want); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, err := s.Get("obj1")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Get = %q, want %q", got, want)
	}

	// Overwrite.
	if err := s.Put("obj1", []byte("v2")); err != nil {
		t.Fatalf("Put overwrite: %v", err)
	}
	got, err = s.Get("obj1")
	if err != nil || string(got) != "v2" {
		t.Fatalf("Get after overwrite = %q, %v", got, err)
	}

	// Empty object is valid.
	if err := s.Put("empty", nil); err != nil {
		t.Fatalf("Put(empty): %v", err)
	}
	got, err = s.Get("empty")
	if err != nil || len(got) != 0 {
		t.Fatalf("Get(empty) = %q, %v", got, err)
	}

	// List with prefix, sorted.
	for _, n := range []string{"md_b", "md_a", "data_1"} {
		if err := s.Put(n, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	names, err := s.List("md_")
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(names) != 2 || names[0] != "md_a" || names[1] != "md_b" {
		t.Fatalf("List(md_) = %v", names)
	}

	// Delete removes.
	if err := s.Delete("obj1"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := s.Get("obj1"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("Get after delete = %v, want ErrNotExist", err)
	}
}

func TestBadNamesRejected(t *testing.T) {
	for storeName, s := range storesUnderTest(t) {
		t.Run(storeName, func(t *testing.T) {
			for _, bad := range []string{"", "a/b", `a\b`, ".", "..", "../../etc/passwd"} {
				if err := s.Put(bad, []byte("x")); !errors.Is(err, ErrBadName) {
					t.Errorf("Put(%q) = %v, want ErrBadName", bad, err)
				}
				if _, err := s.Get(bad); !errors.Is(err, ErrBadName) {
					t.Errorf("Get(%q) = %v, want ErrBadName", bad, err)
				}
				if _, err := s.Lock(bad); !errors.Is(err, ErrBadName) {
					t.Errorf("Lock(%q) = %v, want ErrBadName", bad, err)
				}
			}
		})
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s := NewMemStore()
	if err := s.Put("obj", []byte("original")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("obj")
	if err != nil {
		t.Fatal(err)
	}
	got[0] = 'X'
	again, err := s.Get("obj")
	if err != nil || string(again) != "original" {
		t.Fatalf("store contents mutated through Get result: %q", again)
	}
}

func TestPutCopiesInput(t *testing.T) {
	s := NewMemStore()
	buf := []byte("original")
	if err := s.Put("obj", buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X'
	got, err := s.Get("obj")
	if err != nil || string(got) != "original" {
		t.Fatalf("store contents aliased caller buffer: %q", got)
	}
}

func TestLockMutualExclusion(t *testing.T) {
	for name, s := range storesUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			const workers = 8
			const iters = 100
			counter := 0
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						release, err := s.Lock("shared")
						if err != nil {
							t.Errorf("Lock: %v", err)
							return
						}
						counter++ // data race unless the lock excludes
						release()
					}
				}()
			}
			wg.Wait()
			if counter != workers*iters {
				t.Fatalf("counter = %d, want %d", counter, workers*iters)
			}
		})
	}
}

func TestLocksAreIndependentPerObject(t *testing.T) {
	s := NewMemStore()
	rel1, err := s.Lock("a")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		rel2, err := s.Lock("b") // must not block on a's lock
		if err == nil {
			rel2()
		}
		close(done)
	}()
	<-done
	rel1()
}

func TestMemStoreAccounting(t *testing.T) {
	s := NewMemStore()
	if err := s.Put("a", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", make([]byte, 28)); err != nil {
		t.Fatal(err)
	}
	if got := s.Size(); got != 2 {
		t.Fatalf("Size = %d", got)
	}
	if got := s.TotalBytes(); got != 128 {
		t.Fatalf("TotalBytes = %d", got)
	}
}

func TestDirStoreSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put("persist", []byte("data")); err != nil {
		t.Fatal(err)
	}
	s2, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Get("persist")
	if err != nil || string(got) != "data" {
		t.Fatalf("after reopen: %q, %v", got, err)
	}
}

func TestQuickMemStorePutGet(t *testing.T) {
	s := NewMemStore()
	i := 0
	f := func(data []byte) bool {
		i++
		name := fmt.Sprintf("obj%d", i)
		if err := s.Put(name, data); err != nil {
			return false
		}
		got, err := s.Get(name)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentStoreOps drives each store from several goroutines with
// Get, Put, Delete, List and Lock on overlapping names. Every value read
// is one some worker wrote whole, every listing is sorted and in prefix,
// and a counter read, raised and written back under Lock counts every
// raise. Run under -race (`make race`) it is the check of each store's
// own locking.
func TestConcurrentStoreOps(t *testing.T) {
	for name, s := range storesUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			const workers, iters = 4, 500
			names := []string{"obj-a", "obj-b", "obj-c"}
			raises := 0 // counter raises made, one per worker's lock step
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						obj := names[(w+i)%len(names)]
						switch i % 5 {
						case 0:
							if err := s.Put(obj, []byte(fmt.Sprintf("value %d %d", w, i))); err != nil {
								t.Errorf("Put(%s): %v", obj, err)
							}
						case 1:
							got, err := s.Get(obj)
							var gw, gi int
							switch {
							case errors.Is(err, ErrNotExist):
							case err != nil:
								t.Errorf("Get(%s): %v", obj, err)
							default:
								if n, _ := fmt.Sscanf(string(got), "value %d %d", &gw, &gi); n != 2 || gw >= workers || gi >= iters {
									t.Errorf("Get(%s) = %q, which no worker wrote", obj, got)
								}
							}
						case 2:
							if err := s.Delete(obj); err != nil && !errors.Is(err, ErrNotExist) {
								t.Errorf("Delete(%s): %v", obj, err)
							}
						case 3:
							listed, err := s.List("obj-")
							if err != nil {
								t.Errorf("List: %v", err)
							}
							for j, n := range listed {
								if !strings.HasPrefix(n, "obj-") || (j > 0 && listed[j-1] >= n) {
									t.Errorf("List(obj-) = %q", listed)
									break
								}
							}
						case 4:
							release, err := s.Lock("counter")
							if err != nil {
								t.Errorf("Lock: %v", err)
								continue
							}
							n := 0
							if got, err := s.Get("counter"); err == nil {
								n, _ = strconv.Atoi(string(got))
							} else if !errors.Is(err, ErrNotExist) {
								t.Errorf("Get(counter): %v", err)
							}
							if err := s.Put("counter", []byte(strconv.Itoa(n+1))); err != nil {
								t.Errorf("Put(counter): %v", err)
							}
							raises++ // a data race unless the lock excludes
							release()
						}
					}
				}()
			}
			wg.Wait()
			got, err := s.Get("counter")
			if err != nil {
				t.Fatal(err)
			}
			if n, _ := strconv.Atoi(string(got)); n != raises || n != workers*iters/5 {
				t.Fatalf("counter = %s after %d raises, want %d", got, raises, workers*iters/5)
			}
		})
	}
}
