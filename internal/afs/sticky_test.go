package afs

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"nexus/internal/backend"
	"nexus/internal/obs"
)

// startMeteredServer is startServer with the server's meters bound to reg.
func startMeteredServer(t *testing.T, reg *obs.Registry) (*Server, string) {
	t.Helper()
	srv := NewServer(backend.NewMemStore())
	srv.SetObs(reg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	t.Cleanup(func() { _ = srv.Close() })
	return srv, l.Addr().String()
}

// mustLock takes name's lock or fails the test.
func mustLock(t *testing.T, c *Client, name string) func() {
	t.Helper()
	release, err := c.Lock(name)
	if err != nil {
		t.Fatalf("Lock(%s): %v", name, err)
	}
	return release
}

// expireLease makes c's lease run out, as if its last answered request
// had been sent two callbackAckTimeouts ago.
func expireLease(c *Client) {
	c.leaseFrom.Store(int64(time.Since(c.epoch) - 2*callbackAckTimeout))
}

// A released lock is kept: locking it again costs no frame while the
// lease holds, and the server still records the client as its holder.
func TestStickyLockRelockIsLocal(t *testing.T) {
	_, addr := startServer(t)
	reg := obs.NewRegistry()
	c := dialClient(t, addr, ClientConfig{Obs: reg})
	mustLock(t, c, "x")()
	rpcs, _ := c.Stats()
	const rounds = 100
	for i := 0; i < rounds; i++ {
		mustLock(t, c, "x")()
	}
	if after, _ := c.Stats(); after != rpcs {
		t.Errorf("%d relocks of a kept lock sent %d frames, want none", rounds, after-rpcs)
	}
	if n := reg.CounterValue("afs_lock_local_grants_total"); n != rounds {
		t.Errorf("afs_lock_local_grants_total = %d, want %d", n, rounds)
	}
	if n := reg.CounterValue("afs_oneway_frames_total"); n != 0 {
		t.Errorf("afs_oneway_frames_total = %d, want 0: a kept lock is never unlocked", n)
	}
}

// A request from the client that keeps the lock, sent because its lease
// ran out, is granted again at once with a revalidating reply: it does not
// queue behind the client's own kept grant.
func TestStickyLockReRequestAfterLease(t *testing.T) {
	_, addr := startServer(t)
	reg := obs.NewRegistry()
	c := dialClient(t, addr, ClientConfig{Obs: reg, RPCTimeout: 2 * time.Second, Retry: RetryPolicy{MaxAttempts: 1}})
	mustPut(t, c, "x", []byte("v"))
	mustLock(t, c, "x")()
	expireLease(c)
	rpcs, _ := c.Stats()
	start := time.Now()
	release := mustLock(t, c, "x")
	release()
	if elapsed := time.Since(start); elapsed > callbackAckTimeout {
		t.Fatalf("re-request took %v: it queued behind the client's own grant", elapsed)
	}
	if after, _ := c.Stats(); after != rpcs+1 {
		t.Errorf("a lock with an expired lease sent %d frames, want the one lock request", after-rpcs)
	}
	if n := revalidated(reg, lockUnchanged); n != 2 {
		t.Errorf("unchanged revalidations = %d, want 2 (first grant and re-request)", n)
	}
	if n := reg.CounterValue("afs_lock_local_grants_total"); n != 0 {
		t.Errorf("afs_lock_local_grants_total = %d, want 0", n)
	}
}

// A transport fault drops the connection, and the server releases the
// locks it granted there; the client's generation moves only when its
// next RPC reconnects. A kept lock of that connection is never granted
// locally in between.
func TestStickyLockNotLocalAfterConnDrop(t *testing.T) {
	_, addr := startServer(t)
	reg := obs.NewRegistry()
	c := dialClient(t, addr, ClientConfig{Obs: reg})
	mustLock(t, c, "x")()
	c.reqMu.Lock()
	c.dropConnLocked()
	c.reqMu.Unlock()
	mustLock(t, c, "x")()
	if n := reg.CounterValue("afs_lock_local_grants_total"); n != 0 {
		t.Errorf("afs_lock_local_grants_total = %d after the connection dropped, want 0", n)
	}
	if c.Reconnects() != 1 {
		t.Errorf("reconnects = %d, want the lock request's", c.Reconnects())
	}
}

// A recall of a lock in use is answered busy; the holder's release then
// sends the one-way unlock, and only that hands the lock on.
func TestStickyLockRecallAnsweredBusy(t *testing.T) {
	_, addr := startServer(t)
	aReg := obs.NewRegistry()
	a := dialClient(t, addr, ClientConfig{Obs: aReg})
	b := dialClient(t, addr, ClientConfig{})
	release := mustLock(t, a, "y")
	granted := make(chan func(), 1)
	go func() {
		release, err := b.Lock("y")
		if err != nil {
			t.Error(err)
		}
		granted <- release
	}()
	waitFor(t, 5*time.Second, func() bool { return aReg.CounterValue("afs_lock_recalls_busy_total") == 1 })
	select {
	case <-granted:
		t.Fatal("b was granted the lock while a held it")
	case <-time.After(20 * time.Millisecond):
	}
	release()
	if n := aReg.CounterValue("afs_oneway_frames_total"); n != 1 {
		t.Errorf("a's release after a busy recall sent %d one-way frames, want 1", n)
	}
	select {
	case release := <-granted:
		if release != nil {
			release()
		}
	case <-time.After(5 * time.Second):
		t.Fatal("b never got the lock after a's unlock")
	}
	// a no longer keeps it: its next lock is a request, recalled from b.
	rpcs, _ := a.Stats()
	mustLock(t, a, "y")()
	if after, _ := a.Stats(); after != rpcs+1 {
		t.Errorf("a's lock after unlocking sent %d frames, want 1", after-rpcs)
	}
}

// A holder blocked in another lock request still answers a recall: the
// callback loop never takes the request mutex, so a peer gets the lock
// the blocked client keeps, and nobody deadlocks.
func TestStickyLockRecallWhileHolderBlocked(t *testing.T) {
	srv, addr := startServer(t)
	aReg := obs.NewRegistry()
	a := dialClient(t, addr, ClientConfig{Obs: aReg})
	b := dialClient(t, addr, ClientConfig{})
	c := dialClient(t, addr, ClientConfig{})
	mustLock(t, a, "y")() // kept by a
	releaseZ := mustLock(t, c, "z")

	blocked := make(chan error, 1)
	go func() {
		release, err := a.Lock("z") // waits for c
		if err == nil {
			release()
		}
		blocked <- err
	}()
	// b's request for y recalls it from a, whose request for z waits.
	waitFor(t, 5*time.Second, func() bool { return queued(srv, "z") == 1 })
	done := make(chan error, 1)
	go func() {
		release, err := b.Lock("y")
		if err == nil {
			release()
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("b's lock of y: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("b's lock of y waited on a, which is blocked in its own lock request")
	}
	if n := aReg.CounterValue("afs_lock_recalls_released_total"); n != 1 {
		t.Errorf("a answered %d recalls released, want 1", n)
	}
	select {
	case err := <-blocked:
		t.Fatalf("a's lock of z returned (%v) while c holds it", err)
	default:
	}
	releaseZ()
	if err := <-blocked; err != nil {
		t.Fatalf("a's lock of z after c's release: %v", err)
	}
}

// queued returns how many requests wait for name's lock on srv.
func queued(srv *Server, name string) int {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if ls := srv.locks[name]; ls != nil {
		return len(ls.waiters)
	}
	return 0
}

// Close unlocks the locks the client keeps before it goes, so a peer is
// granted one at once, with no recall.
func TestStickyLockCloseUnlocksKeptLocks(t *testing.T) {
	srvReg := obs.NewRegistry()
	_, addr := startMeteredServer(t, srvReg)
	a, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	mustLock(t, a, "y")()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	b := dialClient(t, addr, ClientConfig{RPCTimeout: callbackAckTimeout / 2, Retry: RetryPolicy{MaxAttempts: 1}})
	mustLock(t, b, "y")()
	if n := srvReg.CounterValue("afs_server_lock_recalls_total"); n != 0 {
		t.Errorf("afs_server_lock_recalls_total = %d, want 0: a's close unlocked y", n)
	}
}

// Property: a kept lock's grant is a release-consistency point too. A
// caches x and keeps y; B stores x — A's callback loop never sees the
// break, so the server gives up on A's channel, and because A holds a
// lock it closes A's connection and holds the store until A's lease is
// over — then B locks y. A, whose loop has not seen the close either,
// locks y and reads x: its lease has run out, so the lock is a request
// (on a new connection) and the read returns B's bytes.
func TestPropertyStickyLockGrantSeesEarlierStores(t *testing.T) {
	srvReg := obs.NewRegistry()
	_, addr := startMeteredServer(t, srvReg)
	var gate sync.RWMutex
	a, err := Dial(addr, ClientConfig{
		RPCTimeout: 5 * time.Second,
		Dial:       heldCallbackDial(&gate),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b := dialClient(t, addr, ClientConfig{})

	before, after := []byte("before the store"), []byte("after the store")
	mustPut(t, b, "x", before)
	if got, err := a.Get("x"); err != nil || !bytes.Equal(got, before) {
		t.Fatalf("warming read = %q, %v", got, err)
	}
	mustLock(t, a, "y")() // kept by a

	gate.Lock()
	mustPut(t, b, "x", after)
	mustLock(t, b, "y")()

	release, err := a.Lock("y")
	if err != nil {
		gate.Unlock()
		t.Fatalf("a's lock of y after the reclaim: %v", err)
	}
	got, err := a.Get("x")
	release()
	gate.Unlock()
	if err != nil || !bytes.Equal(got, after) {
		t.Fatalf("read of x under a later lock = %q, %v; want %q", got, err, after)
	}
	if n := srvReg.CounterValue("afs_server_lock_reclaims_total"); n != 1 {
		t.Errorf("afs_server_lock_reclaims_total = %d, want 1", n)
	}
}

// Property: a holder whose callback channel is dead cannot keep a lock
// from a peer. The recall goes unanswered, so the server reclaims the
// holder's locks — closing its connection — and grants the lock once the
// holder's lease is over: within 2 × callbackAckTimeout of the request.
// The holder's next store, still under the lock it thinks it holds,
// fails typed and never reaches the server.
func TestPropertyStickyLockDeadHolderReclaimed(t *testing.T) {
	srv, addr := startServer(t)
	var gate sync.RWMutex
	a, err := Dial(addr, ClientConfig{
		RPCTimeout: 5 * time.Second,
		Dial:       heldCallbackDial(&gate),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b := dialClient(t, addr, ClientConfig{})

	release := mustLock(t, a, "y")
	gate.Lock()
	start := time.Now()
	releaseB := mustLock(t, b, "y")
	if elapsed := time.Since(start); elapsed > 2*callbackAckTimeout+500*time.Millisecond {
		t.Errorf("b waited %v for the dead holder's lock, want at most 2 × %v", elapsed, callbackAckTimeout)
	}
	_, stores := srv.Stats()
	err = a.Put("y-data", []byte("written under a reclaimed lock"))
	release()
	gate.Unlock()
	if !errors.Is(err, backend.ErrInterrupted) {
		t.Fatalf("store under a reclaimed lock = %v, want ErrInterrupted", err)
	}
	if _, after := srv.Stats(); after != stores {
		t.Fatalf("the server applied %d stores made under a reclaimed lock", after-stores)
	}
	releaseB()
}

// A retryable fetch under a lock that rides a reconnect leaves the lock
// behind: the server released it with the old connection. The store that
// follows must fail typed, with ErrLockLost, without being sent.
func TestWriteUnderLockLostToReconnectFailsTyped(t *testing.T) {
	srv, addr := startServer(t)
	armed := &armedDialer{}
	c := dialClient(t, addr, ClientConfig{
		RPCTimeout: 2 * time.Second,
		Retry:      RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond, Seed: 3},
		Dial:       armed.dial,
	})
	mustPut(t, c, "x", []byte("v1"))
	release := mustLock(t, c, "x")
	defer release()
	c.FlushCache()               // so the read is a fetch
	armed.arm(cutPlan{frac: -1}) // the fetch is delivered, its reply lost
	if _, err := c.Get("x"); err != nil {
		t.Fatalf("retried fetch: %v", err)
	}
	if c.Reconnects() != 1 {
		t.Fatalf("reconnects = %d, want the one the cut forced", c.Reconnects())
	}
	_, stores := srv.Stats()
	err := c.Put("x", []byte("v2"))
	if !errors.Is(err, ErrLockLost) || !errors.Is(err, backend.ErrInterrupted) {
		t.Fatalf("store after the lock was lost = %v, want ErrInterrupted wrapping ErrLockLost", err)
	}
	if _, after := srv.Stats(); after != stores {
		t.Fatalf("the server saw %d stores, want none", after-stores)
	}
}
