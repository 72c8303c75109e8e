package afs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"nexus/internal/backend"
	"nexus/internal/netsim"
)

// Property: after any injected disconnect, a read observes either the
// pre-crash committed value or the post-crash committed value — never a
// torn frame. The armed dialer below gives each iteration surgical
// control over exactly which Write dies and how.

// cutPlan describes one scheduled connection failure.
type cutPlan struct {
	skip int // Write calls to pass through before acting
	// frac < 0 means "complete the write, then kill the connection"
	// (the frame is delivered, the reply is lost); otherwise the write
	// is truncated at frac and the connection killed mid-frame.
	frac float64
	// within > 0 confines the cut to the first within bytes of the write
	// (frac then scales that prefix), e.g. inside the frame header.
	within int
}

// armedDialer wires test-controlled cuts into a client's transport.
type armedDialer struct {
	mu   sync.Mutex
	plan *cutPlan // guarded by mu
}

func (a *armedDialer) arm(p cutPlan) {
	a.mu.Lock()
	a.plan = &p
	a.mu.Unlock()
}

func (a *armedDialer) dial(addr string) (net.Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &armedConn{Conn: c, a: a}, nil
}

type armedConn struct {
	net.Conn
	a *armedDialer
}

func (c *armedConn) Write(b []byte) (int, error) {
	c.a.mu.Lock()
	p := c.a.plan
	if p == nil {
		c.a.mu.Unlock()
		return c.Conn.Write(b)
	}
	if p.skip > 0 {
		p.skip--
		c.a.mu.Unlock()
		return c.Conn.Write(b)
	}
	c.a.plan = nil
	c.a.mu.Unlock()
	if p.frac < 0 {
		n, err := c.Conn.Write(b)
		_ = c.Conn.Close()
		if err != nil {
			return n, err
		}
		return n, fmt.Errorf("%w: connection killed after delivery", netsim.ErrInjected)
	}
	span := len(b)
	if p.within > 0 && p.within < span {
		span = p.within
	}
	n := int(p.frac * float64(span))
	if n >= len(b) {
		n = len(b) - 1
	}
	if n < 0 {
		n = 0
	}
	if n > 0 {
		_, _ = c.Conn.Write(b[:n])
	}
	_ = c.Conn.Close()
	return n, fmt.Errorf("%w: write truncated at %d/%d", netsim.ErrInjected, n, len(b))
}

func propPayload(i int) []byte {
	b := make([]byte, 400+i)
	rng := netsim.NewRand(int64(0xBEEF + i))
	_, _ = rng.Read(b)
	b[0] = byte(i) // cheap marker for failure messages
	return b
}

func TestPropertyNoTornFrameAcrossDisconnects(t *testing.T) {
	_, addr := startServer(t)
	armer := &armedDialer{}
	writer, err := Dial(addr, ClientConfig{
		RPCTimeout: 2 * time.Second,
		Retry:      RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond, Seed: 11},
		Dial:       armer.dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	// The reader is an independent client with caching off: every read
	// observes exactly what the server holds.
	reader := dialClient(t, addr, ClientConfig{CacheBytes: -1})

	const key = "torn-frame-victim"
	committed := propPayload(0)
	if err := writer.Put(key, committed); err != nil {
		t.Fatal(err)
	}

	rng := netsim.NewRand(4242)
	for i := 1; i <= 30; i++ {
		next := propPayload(i)
		// A store frame is one Write (header and body together).
		// Alternate between cutting inside the header, cutting anywhere
		// in the frame at a random fraction, and killing the connection
		// after full delivery.
		var plan cutPlan
		switch i % 3 {
		case 0:
			plan = cutPlan{frac: rng.Float64(), within: frameHeaderLen} // header cut
		case 1:
			plan = cutPlan{frac: rng.Float64()} // mid-frame cut
		default:
			plan = cutPlan{frac: -1} // delivered, reply lost
		}
		// Make sure the client is connected before arming, so the plan
		// lands on the store frame and not on a reconnect handshake.
		if err := writer.Ping(); err != nil {
			t.Fatalf("iter %d: ping: %v", i, err)
		}
		armer.arm(plan)
		err := writer.Put(key, next)
		if err != nil && !errors.Is(err, backend.ErrInterrupted) {
			t.Fatalf("iter %d: put died with untyped error: %v", i, err)
		}

		// Every read during and after the crash must observe exactly the
		// old or the new committed value. A fully delivered frame is
		// applied asynchronously (the reply was lost, not the request), so
		// poll until it lands; a truncated frame can never be applied.
		deadline := time.Now().Add(2 * time.Second)
		for {
			got, gerr := reader.Get(key)
			if gerr != nil {
				t.Fatalf("iter %d: read: %v", i, gerr)
			}
			isOld, isNew := bytes.Equal(got, committed), bytes.Equal(got, next)
			if !isOld && !isNew {
				t.Fatalf("iter %d (plan %+v): torn read: %d bytes, neither committed (%d) nor next (%d)",
					i, plan, len(got), len(committed), len(next))
			}
			if isNew {
				if plan.frac >= 0 {
					t.Fatalf("iter %d: truncated frame was applied by the server", i)
				}
				committed = next
				break
			}
			if plan.frac >= 0 {
				break // truncated: the old value is the permanent outcome
			}
			if time.Now().After(deadline) {
				t.Fatalf("iter %d: fully delivered store never applied", i)
			}
			time.Sleep(2 * time.Millisecond)
		}
		// The writer itself must converge to the committed value too: its
		// cache was invalidated by the failed put and flushed on reconnect.
		wgot, werr := writer.Get(key)
		if werr != nil {
			t.Fatalf("iter %d: writer re-read: %v", i, werr)
		}
		if !bytes.Equal(wgot, committed) {
			t.Fatalf("iter %d: writer re-read diverged from committed value", i)
		}
	}
}

// recordingDialer remembers every connection it hands out so the test
// can sever a client's links from outside, simulating a network drop the
// client did not initiate.
type recordingDialer struct {
	mu    sync.Mutex
	conns []net.Conn // guarded by mu
}

func (d *recordingDialer) dial(addr string) (net.Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.conns = append(d.conns, c)
	d.mu.Unlock()
	return c, nil
}

func (d *recordingDialer) severAll() {
	d.mu.Lock()
	conns := d.conns
	d.conns = nil
	d.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
}

// Property: a reconnect can never serve a stale cached read. When c1's
// callback channel dies it may miss invalidations for writes made in the
// gap; its next read must come from the server, not the cache.
func TestPropertyNoStaleReadAfterReconnect(t *testing.T) {
	_, addr := startServer(t)
	rec := &recordingDialer{}
	c1, err := Dial(addr, ClientConfig{
		RPCTimeout: 2 * time.Second,
		Retry:      RetryPolicy{MaxAttempts: 6, BaseBackoff: time.Millisecond, Seed: 3},
		Dial:       rec.dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2 := dialClient(t, addr, ClientConfig{})

	const key = "stale-read-victim"
	v1 := []byte("value before the partition")
	if err := c1.Put(key, v1); err != nil {
		t.Fatal(err)
	}
	// Warm c1's cache and prove it is actually serving from cache.
	if _, err := c1.Get(key); err != nil {
		t.Fatal(err)
	}
	_, hitsBefore := c1.Stats()
	if got, err := c1.Get(key); err != nil || !bytes.Equal(got, v1) {
		t.Fatalf("warm read: %q, %v", got, err)
	}
	if _, hits := c1.Stats(); hits != hitsBefore+1 {
		t.Fatal("warm read did not come from the cache; the property below would be vacuous")
	}

	// Partition c1 (both channels die), then write v2 from c2 while c1
	// cannot receive the invalidation.
	rec.severAll()
	waitFor(t, time.Second, func() bool { return c1.cbLost.Load() })
	v2 := []byte("value written during the partition")
	if err := c2.Put(key, v2); err != nil {
		t.Fatal(err)
	}

	// c1's very next read must observe v2: the lost callback channel
	// gates the cache off, and the reconnect flushes it.
	got, version, err := c1.GetVersioned(key)
	if err != nil {
		t.Fatalf("read after partition: %v", err)
	}
	if !bytes.Equal(got, v2) {
		t.Fatalf("stale read after reconnect: got %q, want %q", got, v2)
	}
	if c1.Reconnects() < 1 {
		t.Fatal("client never reconnected; the partition was not exercised")
	}
	// And the resynced cache is coherent again: version advances, later
	// writes invalidate via the new callback channel.
	if err := c2.Put(key, []byte("v3")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, func() bool {
		got, v, err := c1.GetVersioned(key)
		return err == nil && v > version && bytes.Equal(got, []byte("v3"))
	})
}

// Property: a lock release closure from before a reconnect is a no-op —
// it must never release a lock some other client has since acquired.
func TestPropertyLockReleaseAfterReconnectIsNoOp(t *testing.T) {
	_, addr := startServer(t)
	rec := &recordingDialer{}
	c1, err := Dial(addr, ClientConfig{
		RPCTimeout: time.Second,
		Retry:      RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond, Seed: 5},
		Dial:       rec.dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2 := dialClient(t, addr, ClientConfig{})

	const key = "lock-lease-victim"
	staleRelease, err := c1.Lock(key)
	if err != nil {
		t.Fatal(err)
	}
	// c1's connection dies: the server auto-releases its lock, and c2
	// acquires it.
	rec.severAll()
	done := make(chan struct{})
	var c2Release func()
	go func() {
		defer close(done)
		var lerr error
		c2Release, lerr = c2.Lock(key)
		if lerr != nil {
			t.Errorf("c2 lock after c1's disconnect: %v", lerr)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("c2 never acquired the lock after c1's disconnect")
	}
	// Force c1 to notice and reconnect, then fire the stale release.
	if err := c1.Ping(); err != nil {
		t.Fatalf("c1 ping after sever: %v", err)
	}
	if c1.Reconnects() < 1 {
		t.Fatal("c1 never reconnected")
	}
	staleRelease()
	// c2 must still hold the lock: a third client's lock RPC times out
	// rather than being granted.
	c3, err := Dial(addr, ClientConfig{
		RPCTimeout: 300 * time.Millisecond,
		Retry:      RetryPolicy{MaxAttempts: 1, Seed: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if _, err := c3.Lock(key); !errors.Is(err, backend.ErrInterrupted) {
		t.Fatalf("c3 lock while c2 holds it: %v, want deadline-bounded ErrInterrupted", err)
	}
	if c2Release != nil {
		c2Release()
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Property: once a peer's store has returned, no client serves the old
// bytes. The server holds the writer's reply until every holder has
// acknowledged the callback break, so the reader's cached copy is gone
// before the writer can tell anyone about the new value.
func TestPropertyNoStaleReadAfterPeerStore(t *testing.T) {
	_, addr := startServer(t)
	reader := dialClient(t, addr, ClientConfig{})
	writer := dialClient(t, addr, ClientConfig{})

	const key = "peer-store-victim"
	const iterations = 5000
	value := make([]byte, 8)
	if err := writer.Put(key, value); err != nil {
		t.Fatal(err)
	}
	stale, cached := 0, 0
	for i := 1; i <= iterations; i++ {
		// The reader caches the current value (and proves it, every so
		// often, by reading it again without an RPC).
		if _, err := reader.Get(key); err != nil {
			t.Fatalf("iter %d: warming read: %v", i, err)
		}
		if i%100 == 0 {
			_, hits := reader.Stats()
			if _, err := reader.Get(key); err != nil {
				t.Fatal(err)
			}
			if _, after := reader.Stats(); after == hits+1 {
				cached++
			}
		}
		binary.LittleEndian.PutUint64(value, uint64(i))
		if err := writer.Put(key, value); err != nil {
			t.Fatalf("iter %d: peer store: %v", i, err)
		}
		got, err := reader.Get(key)
		if err != nil {
			t.Fatalf("iter %d: read after peer store: %v", i, err)
		}
		if !bytes.Equal(got, value) {
			stale++
		}
	}
	if cached != iterations/100 {
		t.Fatalf("reader served only %d of %d probe reads from its cache; the property would be vacuous", cached, iterations/100)
	}
	if stale != 0 {
		t.Fatalf("%d of %d reads after a peer's completed store returned the old bytes", stale, iterations)
	}
}

// gatedConn holds every Read back while the test holds the gate's write
// lock, so a reply can be made to sit on the wire.
type gatedConn struct {
	net.Conn
	gate *sync.RWMutex
}

func (c *gatedConn) Read(b []byte) (int, error) {
	c.gate.RLock()
	c.gate.RUnlock() // a barrier, not a critical section
	return c.Conn.Read(b)
}

// Property: a fetch reply that crosses a callback break on the wire is
// not cached. The reply may carry the bytes from before the store that
// the break announced, and the break has already consumed the reader's
// callback promise — cached, those bytes would be served forever.
func TestPropertyFetchCrossingBreakIsNotCached(t *testing.T) {
	srv, addr := startServer(t)
	var gate sync.RWMutex
	first := true
	reader, err := Dial(addr, ClientConfig{
		RPCTimeout: 5 * time.Second,
		Dial: func(addr string) (net.Conn, error) {
			c, err := net.Dial("tcp", addr)
			if err != nil || !first {
				return c, err
			}
			first = false // the RPC connection; the callback channel stays ungated
			return &gatedConn{Conn: c, gate: &gate}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	writer := dialClient(t, addr, ClientConfig{})

	const key = "crossing-victim"
	before, after := []byte("before the store"), []byte("after the store")
	mustPut(t, writer, key, before)

	// The reader's fetch is answered, but the reply sits on the wire...
	gate.Lock()
	fetches, _ := srv.Stats()
	overlapped := make(chan []byte, 1)
	go func() {
		got, err := reader.Get(key)
		if err != nil {
			t.Errorf("overlapping read: %v", err)
		}
		overlapped <- got
	}()
	waitFor(t, 2*time.Second, func() bool { n, _ := srv.Stats(); return n == fetches+1 })
	// ...while a peer's store completes: the break reaches the reader on
	// its callback channel and is acknowledged.
	mustPut(t, writer, key, after)
	gate.Unlock()
	if got := <-overlapped; !bytes.Equal(got, before) && !bytes.Equal(got, after) {
		t.Fatalf("overlapping read returned %q", got)
	}

	got, err := reader.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, after) {
		t.Fatalf("read after the peer's store returned %q: the crossed reply was cached", got)
	}
}
