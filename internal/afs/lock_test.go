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
	"nexus/internal/serial"
)

// revalidated reads the counter of lock replies with the given outcome.
func revalidated(reg *obs.Registry, outcome lockOutcome) int64 {
	return reg.CounterValue("afs_lock_revalidations_" + outcome.String() + "_total")
}

// A lock reply revalidates the holder's cached copy: whatever the cache
// held before, the read that follows the lock is answered from the cache
// and returns the server's current contents.
func TestLockReplyRevalidatesCache(t *testing.T) {
	v1, v2 := []byte("contents at version one"), []byte("contents at version two")
	cases := []struct {
		name string
		cfg  ClientConfig
		// prepare leaves the locking client's cache in the state under
		// test; peer is a second client of the same server.
		prepare func(t *testing.T, c, peer *Client)
		outcome lockOutcome
		want    []byte // nil = does not exist
		// serverGets is how many times the lock may read the file from the
		// server's backing store.
		serverGets int64
	}{
		{
			name: "cached copy is current: unchanged, no data, no backend read",
			prepare: func(t *testing.T, c, _ *Client) {
				mustPut(t, c, "x", v1)
			},
			outcome: lockUnchanged, want: v1, serverGets: 0,
		},
		{
			name: "nothing cached: data rides on the reply",
			prepare: func(t *testing.T, c, peer *Client) {
				mustPut(t, peer, "x", v1)
			},
			outcome: lockData, want: v1, serverGets: 1,
		},
		{
			name: "file does not exist: absent, cached as a negative entry",
			prepare: func(*testing.T, *Client, *Client) {
			},
			outcome: lockAbsent, want: nil, serverGets: 1,
		},
		{
			// The break for the peer's store never reaches this client
			// (callbacks are off), exactly as if it were still in flight
			// when the lock is granted: the version comparison, not the
			// callback, is what makes the locked read current.
			name: "in-flight invalidation: cached version is older than the server's",
			cfg:  ClientConfig{DisableCallbacks: true},
			prepare: func(t *testing.T, c, peer *Client) {
				mustPut(t, c, "x", v1)
				mustPut(t, peer, "x", v2)
				if got, err := c.Get("x"); err != nil || !bytes.Equal(got, v1) {
					t.Fatalf("precondition: client should still cache v1, got %q, %v", got, err)
				}
			},
			outcome: lockData, want: v2, serverGets: 1,
		},
		{
			name: "cached copy was removed by a peer: absent",
			cfg:  ClientConfig{DisableCallbacks: true},
			prepare: func(t *testing.T, c, peer *Client) {
				mustPut(t, c, "x", v1)
				if err := peer.Delete("x"); err != nil {
					t.Fatal(err)
				}
			},
			outcome: lockAbsent, want: nil, serverGets: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, addr := startServer(t)
			reg := obs.NewRegistry()
			tc.cfg.Obs = reg
			c := dialClient(t, addr, tc.cfg)
			peer := dialClient(t, addr, ClientConfig{})
			tc.prepare(t, c, peer)

			getsBefore, _ := srv.Stats()
			release, err := c.Lock("x")
			if err != nil {
				t.Fatalf("Lock: %v", err)
			}
			defer release()
			getsAfter, _ := srv.Stats()
			if getsAfter-getsBefore != tc.serverGets {
				t.Errorf("lock read the backing store %d times, want %d", getsAfter-getsBefore, tc.serverGets)
			}
			for o := lockUnchanged; o <= lockData; o++ {
				want := int64(0)
				if o == tc.outcome {
					want = 1
				}
				if n := revalidated(reg, o); n != want {
					t.Errorf("outcome %s counted %d times, want %d", o, n, want)
				}
			}

			// The read under the lock: current contents, from the cache.
			rpcsBefore, _ := c.Stats()
			read, err := c.Get("x")
			if rpcsAfter, _ := c.Stats(); rpcsAfter != rpcsBefore {
				t.Errorf("read under the lock issued %d RPCs, want a cache hit", rpcsAfter-rpcsBefore)
			}
			if tc.want == nil {
				if !errors.Is(err, backend.ErrNotExist) {
					t.Fatalf("read under the lock = %q, %v; want ErrNotExist", read, err)
				}
				return
			}
			if err != nil || !bytes.Equal(read, tc.want) {
				t.Fatalf("read under the lock = %q, %v; want %q", read, err, tc.want)
			}
		})
	}
}

func mustPut(t *testing.T, c *Client, name string, data []byte) {
	t.Helper()
	if err := c.Put(name, data); err != nil {
		t.Fatalf("Put(%s): %v", name, err)
	}
}

// While the callback channel is down the cache is about to be flushed:
// a lock request offers no cached version, so the reply brings the data.
func TestLockOffersNoCachedVersionWhileCallbackChannelDown(t *testing.T) {
	_, addr := startServer(t)
	reg := obs.NewRegistry()
	c := dialClient(t, addr, ClientConfig{Obs: reg})
	mustPut(t, c, "x", []byte("v"))
	if v, ok := c.cachedVersion("x"); !ok || v == 0 {
		t.Fatalf("live channel: cachedVersion = %d, %v; want the stored version", v, ok)
	}
	c.cbLost.Store(true)
	if v, ok := c.cachedVersion("x"); ok {
		t.Fatalf("callback channel down: cachedVersion offered %d", v)
	}
	release, err := c.Lock("x")
	if err != nil {
		t.Fatal(err)
	}
	release()
	if unchanged, data := revalidated(reg, lockUnchanged), revalidated(reg, lockData); unchanged != 0 || data != 1 {
		t.Fatalf("lock with the channel down: unchanged=%d data=%d, want 0 and 1", unchanged, data)
	}
	if c.Reconnects() != 1 {
		t.Fatalf("reconnects = %d, want the resync the lost channel forces", c.Reconnects())
	}
}

// The first byte of a lock reply carries the outcome and, in its top bit,
// whether the server has given up on the client's callback channel; both
// survive the round trip, and a flag-free reply is byte-for-byte what
// clients that predate the flag decode.
func TestLockReplyRoundTrip(t *testing.T) {
	data := []byte("revalidated copy")
	for _, outcome := range []lockOutcome{lockUnchanged, lockAbsent, lockData} {
		for _, lost := range []bool{false, true} {
			body := frameBody(encodeLockReply(outcome, lost, 7, data))
			if first := body[0]; lockOutcome(first&^lockCallbackLost) != outcome || (first&lockCallbackLost != 0) != lost {
				t.Fatalf("%s lost=%v: first byte %#x", outcome, lost, first)
			}
			gotOutcome, gotLost, version, payload, err := decodeLockReply(body)
			if err != nil || gotOutcome != outcome || gotLost != lost {
				t.Fatalf("%s lost=%v: decoded %s lost=%v, %v", outcome, lost, gotOutcome, gotLost, err)
			}
			if outcome == lockData && (version != 7 || !bytes.Equal(payload, data)) {
				t.Fatalf("data reply decoded version %d payload %q", version, payload)
			}
		}
	}
	if _, _, _, _, err := decodeLockReply([]byte{lockCallbackLost}); !errors.Is(err, ErrProtocol) {
		t.Fatalf("flag without an outcome decoded: %v", err)
	}
}

// heldConn hands nothing it has read to the client while the test holds
// the gate's write lock: a callback break, and the close after it, sit
// unseen in the client's callback loop.
type heldConn struct {
	net.Conn
	gate *sync.RWMutex
}

func (c *heldConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.gate.RLock()
	c.gate.RUnlock() // a barrier, not a critical section
	return n, err
}

// Property: a lock grant is a release-consistency point. Client A caches
// x; B stores x — A's callback loop never sees the break, so the server
// gives up on A's channel after callbackAckTimeout and B's store returns
// — then B locks and unlocks y. A, whose loop has not seen the close
// either, locks y and reads x: it must get B's bytes, not its cached copy,
// and keep its lock on y while it does.
func TestPropertyLockGrantSeesEarlierStores(t *testing.T) {
	_, addr := startServer(t)
	var gate sync.RWMutex
	dials := 0
	a, err := Dial(addr, ClientConfig{
		RPCTimeout: 5 * time.Second,
		Dial: func(addr string) (net.Conn, error) {
			c, err := net.Dial("tcp", addr)
			if dials++; err != nil || dials != 2 {
				return c, err
			}
			return &heldConn{Conn: c, gate: &gate}, nil // the first callback channel
		},
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

	gate.Lock()
	mustPut(t, b, "x", after)
	release, err := b.Lock("y")
	if err != nil {
		t.Fatal(err)
	}
	release()

	release, err = a.Lock("y")
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.Get("x")
	reconnects := a.Reconnects()
	release()
	gate.Unlock()
	if err != nil || !bytes.Equal(got, after) {
		t.Fatalf("read of x under a later lock = %q, %v; want %q", got, err, after)
	}
	if reconnects != 0 {
		t.Fatalf("the read under the lock reconnected %d times, releasing the lock", reconnects)
	}
}

// rawSession opens a bare connection and completes the hello, so a test
// can hand-write request frames.
func rawSession(t *testing.T, addr, clientID string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	hello := newFrame(32)
	hello.WriteString(clientID)
	hello.WriteBool(false)
	if err := writeFrame(conn, opHello, 1, hello); err != nil {
		t.Fatal(err)
	}
	if resp, err := readFrame(conn); err != nil || resp.op != opReply {
		t.Fatalf("hello reply: %+v, %v", resp, err)
	}
	return conn
}

// A lock request is decoded in full before the server acquires anything:
// a malformed one is answered with errCodeBadRequest and leaves the lock
// free.
func TestMalformedLockRequestNeverAcquires(t *testing.T) {
	_, addr := startServer(t)
	conn := rawSession(t, addr, "malformed-locker")

	truncatedVersion := frameBody(encodeLockRequest("x", true, 7))
	truncatedVersion = truncatedVersion[:len(truncatedVersion)-3]
	badBool := frameBody(encodeLockRequest("x", true, 7))
	badBool[4+1] = 2 // the cached flag: neither 0 nor 1
	bodies := map[string][]byte{
		"name only (the pre-revalidation body)": frameBody(encodeName("x")),
		"truncated version":                     truncatedVersion,
		"invalid cached flag":                   badBool,
		"trailing bytes":                        append(frameBody(encodeLockRequest("x", false, 0)), 0xde, 0xad),
		"empty":                                 nil,
	}
	reqID := uint64(2)
	for name, body := range bodies {
		reqID++
		if err := writeFrame(conn, opLock, reqID, rawFrame(body)); err != nil {
			t.Fatal(err)
		}
		resp, err := readFrame(conn)
		if err != nil {
			t.Fatalf("%s: no response: %v", name, err)
		}
		if resp.op != opError || resp.reqID != reqID {
			t.Fatalf("%s: answered with op %s id %d, want an error for %d", name, resp.op, resp.reqID, reqID)
		}
		r := serial.NewReader(resp.body)
		if code := errCode(r.ReadUint8("code")); code != errCodeBadRequest {
			t.Fatalf("%s: error code %d, want errCodeBadRequest", name, code)
		}
	}

	// Not held: another client takes the lock at once.
	other, err := Dial(addr, ClientConfig{RPCTimeout: time.Second, Retry: RetryPolicy{MaxAttempts: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	release, err := other.Lock("x")
	if err != nil {
		t.Fatalf("lock after malformed requests: %v (a rejected request acquired)", err)
	}
	release()

	// And the malformed session is still usable for a well-formed lock.
	if err := writeFrame(conn, opLock, 100, encodeLockRequest("x", false, 0)); err != nil {
		t.Fatal(err)
	}
	resp, err := readFrame(conn)
	if err != nil || resp.op != opReply {
		t.Fatalf("well-formed lock after rejections: %+v, %v", resp, err)
	}
	if outcome, _, _, _, err := decodeLockReply(resp.body); err != nil || outcome != lockAbsent {
		t.Fatalf("lock reply: outcome %v, %v; want absent", outcome, err)
	}
}

// The unlock is one-way, but the server applies frames in connection
// order: a client that locks a name again right after releasing it never
// waits for (or deadlocks on) its own unlock.
func TestRelockNeverBlocksOnOwnOneWayUnlock(t *testing.T) {
	_, addr := startServer(t)
	reg := obs.NewRegistry()
	c := dialClient(t, addr, ClientConfig{
		Obs:        reg,
		RPCTimeout: 2 * time.Second,
		Retry:      RetryPolicy{MaxAttempts: 1},
	})
	const rounds = 300
	start := time.Now()
	for i := 0; i < rounds; i++ {
		release, err := c.Lock("again")
		if err != nil {
			t.Fatalf("round %d: lock blocked behind this client's own unlock: %v", i, err)
		}
		release()
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("%d lock/unlock rounds took %v", rounds, elapsed)
	}
	if got := reg.CounterValue("afs_oneway_frames_total"); got != rounds {
		t.Fatalf("afs_oneway_frames_total = %d, want %d", got, rounds)
	}
	// One-way frames count as RPCs and as latency observations.
	if rpcs, _ := c.Stats(); rpcs != 2*rounds {
		t.Fatalf("rpcs = %d, want %d (lock + unlock per round)", rpcs, 2*rounds)
	}
	if n := reg.Snapshot("afs_rpc_seconds").Count; n != 2*rounds {
		t.Fatalf("afs_rpc_seconds count = %d, want %d", n, 2*rounds)
	}
	// A second client sees the lock free once the last unlock is applied.
	other := dialClient(t, addr, ClientConfig{RPCTimeout: 2 * time.Second, Retry: RetryPolicy{MaxAttempts: 1}})
	release, err := other.Lock("again")
	if err != nil {
		t.Fatalf("peer lock after the last one-way unlock: %v", err)
	}
	release()
}
