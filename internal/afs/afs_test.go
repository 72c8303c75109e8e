package afs

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"nexus/internal/backend"
	"nexus/internal/netsim"
)

// startServer launches a server on an ephemeral port and returns its
// address. The server is shut down with the test.
func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	store := backend.NewMemStore()
	srv := NewServer(store)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go func() { _ = srv.Serve(l) }()
	t.Cleanup(func() { _ = srv.Close() })
	return srv, l.Addr().String()
}

func dialClient(t *testing.T, addr string, cfg ClientConfig) *Client {
	t.Helper()
	c, err := Dial(addr, cfg)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestBasicRoundTrip(t *testing.T) {
	_, addr := startServer(t)
	c := dialClient(t, addr, ClientConfig{})

	if err := c.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	data := []byte("hello distributed world")
	if err := c.Put("file1", data); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, err := c.Get("file1")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("Get = %q, want %q", got, data)
	}

	st, err := c.StatFile("file1")
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	if !st.Exists || st.Size != uint64(len(data)) || st.Version == 0 {
		t.Fatalf("Stat = %+v", st)
	}

	if err := c.Delete("file1"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := c.Get("file1"); !errors.Is(err, backend.ErrNotExist) {
		t.Fatalf("Get after delete = %v, want ErrNotExist", err)
	}
	st, err = c.StatFile("file1")
	if err != nil || st.Exists {
		t.Fatalf("Stat after delete = %+v, %v", st, err)
	}
}

func TestErrNotExistMapping(t *testing.T) {
	_, addr := startServer(t)
	c := dialClient(t, addr, ClientConfig{})
	if _, err := c.Get("ghost"); !errors.Is(err, backend.ErrNotExist) {
		t.Fatalf("Get(ghost) = %v, want ErrNotExist", err)
	}
	if err := c.Delete("ghost"); !errors.Is(err, backend.ErrNotExist) {
		t.Fatalf("Delete(ghost) = %v, want ErrNotExist", err)
	}
	if err := c.Put("../evil", []byte("x")); !errors.Is(err, backend.ErrBadName) {
		t.Fatalf("Put(../evil) = %v, want ErrBadName", err)
	}
}

func TestList(t *testing.T) {
	_, addr := startServer(t)
	c := dialClient(t, addr, ClientConfig{})
	for _, name := range []string{"md_2", "md_1", "data_9"} {
		if err := c.Put(name, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	names, err := c.List("md_")
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(names) != 2 || names[0] != "md_1" || names[1] != "md_2" {
		t.Fatalf("List = %v", names)
	}
	all, err := c.List("")
	if err != nil || len(all) != 3 {
		t.Fatalf("List(\"\") = %v, %v", all, err)
	}
}

func TestCacheServesWarmReads(t *testing.T) {
	srv, addr := startServer(t)
	c := dialClient(t, addr, ClientConfig{})
	if err := c.Put("hot", []byte("cached data")); err != nil {
		t.Fatal(err)
	}
	fetchesBefore, _ := srv.Stats()
	for i := 0; i < 10; i++ {
		if _, err := c.Get("hot"); err != nil {
			t.Fatal(err)
		}
	}
	fetchesAfter, _ := srv.Stats()
	if fetchesAfter != fetchesBefore {
		t.Fatalf("warm reads hit the server: %d fetches", fetchesAfter-fetchesBefore)
	}
	_, hits := c.Stats()
	if hits < 10 {
		t.Fatalf("cache hits = %d, want >= 10", hits)
	}
}

func TestFlushCacheForcesRefetch(t *testing.T) {
	srv, addr := startServer(t)
	c := dialClient(t, addr, ClientConfig{})
	if err := c.Put("f", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	c.FlushCache()
	before, _ := srv.Stats()
	if _, err := c.Get("f"); err != nil {
		t.Fatal(err)
	}
	after, _ := srv.Stats()
	if after != before+1 {
		t.Fatalf("fetch count after flush = %d, want %d", after, before+1)
	}
}

func TestCallbackInvalidation(t *testing.T) {
	_, addr := startServer(t)
	c1 := dialClient(t, addr, ClientConfig{})
	c2 := dialClient(t, addr, ClientConfig{})

	if err := c1.Put("shared", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	// c2 caches v1 (registers a callback promise).
	got, err := c2.Get("shared")
	if err != nil || string(got) != "v1" {
		t.Fatalf("c2 initial read: %q, %v", got, err)
	}
	// c1 writes v2; the server breaks c2's callback and holds c1's reply
	// until c2 has acknowledged, so c2's very next read sees v2.
	if err := c1.Put("shared", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got, err = c2.Get("shared"); err != nil || string(got) != "v2" {
		t.Fatalf("c2 read after c1's completed store: %q, %v; want v2", got, err)
	}
}

func TestLockExcludesAcrossClients(t *testing.T) {
	_, addr := startServer(t)
	c1 := dialClient(t, addr, ClientConfig{})
	c2 := dialClient(t, addr, ClientConfig{})

	release1, err := c1.Lock("meta")
	if err != nil {
		t.Fatalf("c1 Lock: %v", err)
	}
	acquired := make(chan struct{})
	go func() {
		release2, err := c2.Lock("meta")
		if err == nil {
			release2()
		}
		close(acquired)
	}()
	select {
	case <-acquired:
		t.Fatal("c2 acquired the lock while c1 held it")
	case <-time.After(50 * time.Millisecond):
	}
	release1()
	select {
	case <-acquired:
	case <-time.After(2 * time.Second):
		t.Fatal("c2 never acquired the lock after c1 released")
	}
}

func TestLockReleasedOnDisconnect(t *testing.T) {
	_, addr := startServer(t)
	c1 := dialClient(t, addr, ClientConfig{})
	c2 := dialClient(t, addr, ClientConfig{})

	if _, err := c1.Lock("meta"); err != nil {
		t.Fatal(err)
	}
	// c1 vanishes without unlocking.
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	acquired := make(chan struct{})
	go func() {
		release, err := c2.Lock("meta")
		if err == nil {
			release()
		}
		close(acquired)
	}()
	select {
	case <-acquired:
	case <-time.After(2 * time.Second):
		t.Fatal("lock not released when holder disconnected")
	}
}

func TestLockSerializesCriticalSections(t *testing.T) {
	_, addr := startServer(t)
	const workers = 4
	const iters = 25

	// The counter lives in a shared file; each worker does a locked
	// read-modify-write. Without mutual exclusion updates get lost.
	c0 := dialClient(t, addr, ClientConfig{CacheBytes: -1})
	if err := c0.Put("counter", []byte("0")); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr, ClientConfig{CacheBytes: -1})
			if err != nil {
				t.Errorf("Dial: %v", err)
				return
			}
			defer c.Close()
			for i := 0; i < iters; i++ {
				release, err := c.Lock("counter")
				if err != nil {
					t.Errorf("Lock: %v", err)
					return
				}
				data, err := c.Get("counter")
				if err != nil {
					release()
					t.Errorf("Get: %v", err)
					return
				}
				var v int
				fmt.Sscanf(string(data), "%d", &v)
				if err := c.Put("counter", []byte(fmt.Sprintf("%d", v+1))); err != nil {
					release()
					t.Errorf("Put: %v", err)
					return
				}
				release()
			}
		}()
	}
	wg.Wait()

	data, err := c0.Get("counter")
	if err != nil {
		t.Fatal(err)
	}
	var v int
	fmt.Sscanf(string(data), "%d", &v)
	if v != workers*iters {
		t.Fatalf("counter = %d, want %d (lost updates)", v, workers*iters)
	}
}

func TestDoubleUnlockRejected(t *testing.T) {
	_, addr := startServer(t)
	c := dialClient(t, addr, ClientConfig{})
	release, err := c.Lock("x")
	if err != nil {
		t.Fatal(err)
	}
	release()
	release() // second call is a no-op, must not panic or deadlock
	if err := c.Ping(); err != nil {
		t.Fatalf("connection unhealthy after double release: %v", err)
	}
}

func TestLargeFile(t *testing.T) {
	_, addr := startServer(t)
	c := dialClient(t, addr, ClientConfig{})
	big := make([]byte, 4<<20)
	for i := range big {
		big[i] = byte(i)
	}
	if err := c.Put("big", big); err != nil {
		t.Fatal(err)
	}
	c.FlushCache()
	got, err := c.Get("big")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Fatal("large file corrupted in transit")
	}
}

func TestCacheEviction(t *testing.T) {
	_, addr := startServer(t)
	// Budget of 3 KiB, files of 1 KiB: the 4th file evicts the 1st.
	c := dialClient(t, addr, ClientConfig{CacheBytes: 3 << 10})
	payload := make([]byte, 1<<10)
	for i := 0; i < 4; i++ {
		if err := c.Put(fmt.Sprintf("f%d", i), payload); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := c.cache.version("f0"); ok {
		t.Fatal("f0 not evicted from a full cache")
	}
	if _, ok := c.cache.version("f3"); !ok {
		t.Fatal("f3 missing from cache")
	}
}

func TestClosedClientErrors(t *testing.T) {
	_, addr := startServer(t)
	c := dialClient(t, addr, ClientConfig{})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("x"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after close = %v, want ErrClosed", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
}

func TestNetsimProfileSlowsRPCs(t *testing.T) {
	_, addr := startServer(t)
	slow := dialClient(t, addr, ClientConfig{
		Profile:    netsim.Profile{RTT: 4 * time.Millisecond},
		CacheBytes: -1,
	})
	start := time.Now()
	const n = 5
	for i := 0; i < n; i++ {
		if err := slow.Ping(); err != nil {
			t.Fatal(err)
		}
	}
	// Only the client side is wrapped here, so each ping is charged one
	// half-RTT on its request write.
	if elapsed := time.Since(start); elapsed < n*2*time.Millisecond {
		t.Fatalf("%d pings took %v, want >= %v", n, elapsed, n*2*time.Millisecond)
	}
}

func TestConcurrentClients(t *testing.T) {
	_, addr := startServer(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial(addr, ClientConfig{})
			if err != nil {
				t.Errorf("Dial: %v", err)
				return
			}
			defer c.Close()
			for i := 0; i < 50; i++ {
				name := fmt.Sprintf("w%d_f%d", w, i)
				if err := c.Put(name, []byte(name)); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				got, err := c.Get(name)
				if err != nil || string(got) != name {
					t.Errorf("Get(%s) = %q, %v", name, got, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
