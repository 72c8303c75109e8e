package afs

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"nexus/internal/backend"
	"nexus/internal/netsim"
	"nexus/internal/obs"
)

// startObsServer runs a plain AFS server for the observability tests.
func startObsServer(t *testing.T) (*Server, string) {
	t.Helper()
	srv := NewServer(backend.NewMemStore())
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	t.Cleanup(func() { _ = srv.Close() })
	return srv, l.Addr().String()
}

// TestTransportFaultCounterMatchesInjector pins the fault accounting to
// the injector's ground truth. With a dial-refuse-only profile, every
// injected fault is a refused dial, of the RPC connection or of the
// callback channel, and every refused dial is observed exactly once by
// connectLocked — so afs_transport_faults_total must equal
// Injector.Faults() exactly, for any seed. The seed is fixed so the run (and the fault schedule, a pure
// function of the seed) is an exact replay every time.
func TestTransportFaultCounterMatchesInjector(t *testing.T) {
	const seed = 42
	in := netsim.NewInjector(netsim.FaultProfile{Seed: seed, DialRefuse: 0.3})
	_, addr := startObsServer(t)

	// A connected client never redials, so each iteration dials fresh —
	// that is where a dial-refuse profile injects. All clients share one
	// registry, so the counter aggregates across the whole schedule.
	reg := obs.NewRegistry()
	for i := 0; i < 40; i++ {
		c, err := Dial(addr, ClientConfig{
			Obs:        reg,
			RPCTimeout: 2 * time.Second,
			Retry: RetryPolicy{
				MaxAttempts: 10,
				BaseBackoff: time.Millisecond,
				MaxBackoff:  10 * time.Millisecond,
				Seed:        seed + int64(i),
			},
			Dial: in.Dialer(netsim.Loopback),
		})
		if err != nil {
			// Legitimate when every attempt's dial was refused; the
			// accounting is what is under test, not availability.
			continue
		}
		key := fmt.Sprintf("obs-k%d", i%8)
		_ = c.Put(key, []byte("v"))
		_, _ = c.Get(key)
		_ = c.Close()
	}

	faults := reg.CounterValue("afs_transport_faults_total")
	if injected := in.Faults(); faults != injected {
		t.Errorf("afs_transport_faults_total = %d, injector recorded %d", faults, injected)
	}
	if rpcs := reg.CounterValue("afs_rpcs_total"); rpcs == 0 {
		t.Error("afs_rpcs_total = 0, want > 0")
	}
	if faults == 0 {
		t.Error("no faults injected; the profile/seed no longer exercises the counter")
	}
	t.Logf("faults=%d retries=%d reconnects=%d rpcs=%d",
		faults,
		reg.CounterValue("afs_retries_total"),
		reg.CounterValue("afs_reconnects_total"),
		reg.CounterValue("afs_rpcs_total"))
}

// TestTransportFaultCounterBoundedByInjectorMixed extends the check to a
// mixed profile (refused dials, cut connections, truncated frames).
// Injected faults can go unobserved (a cut on a connection the client
// never touches again), but never the reverse: with no server restarts
// in play, every observed transport fault traces back to an injected
// one. So the counter is bounded by the injector's count.
func TestTransportFaultCounterBoundedByInjectorMixed(t *testing.T) {
	const seed = 7
	in := netsim.NewInjector(netsim.FaultProfile{
		Seed:       seed,
		DialRefuse: 0.05,
		Cut:        0.08,
		Truncate:   0.08,
	})
	_, addr := startObsServer(t)

	reg := obs.NewRegistry()
	c, err := Dial(addr, ClientConfig{
		Obs:        reg,
		RPCTimeout: 2 * time.Second,
		Retry: RetryPolicy{
			MaxAttempts: 10,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  10 * time.Millisecond,
			Seed:        seed,
		},
		Dial: in.Dialer(netsim.Loopback),
	})
	if err != nil {
		t.Fatalf("dial through injector: %v", err)
	}
	for i := 0; i < 80; i++ {
		key := fmt.Sprintf("mixed-k%d", i%8)
		_ = c.Put(key, []byte("payload"))
		_, _ = c.Get(key)
	}
	_ = c.Close()

	faults := reg.CounterValue("afs_transport_faults_total")
	injected := in.Faults()
	if faults == 0 {
		t.Error("no transport faults observed; the profile/seed no longer exercises the counter")
	}
	if faults > injected {
		t.Errorf("afs_transport_faults_total = %d exceeds injector's %d", faults, injected)
	}
	// Every observed fault either burned a retry or a reconnect (or
	// failed its op outright); retries at least must have fired for the
	// client to have made progress through this much injection.
	if retries := reg.CounterValue("afs_retries_total"); retries == 0 {
		t.Error("afs_retries_total = 0, want > 0 under mixed fault injection")
	}
	t.Logf("faults=%d/%d retries=%d reconnects=%d rpcs=%d",
		faults, injected,
		reg.CounterValue("afs_retries_total"),
		reg.CounterValue("afs_reconnects_total"),
		reg.CounterValue("afs_rpcs_total"))
}

// TestClientRPCLatencyHistogram checks the latency instrument fills on
// the healthy path: every RPC lands one observation in afs_rpc_seconds.
func TestClientRPCLatencyHistogram(t *testing.T) {
	_, addr := startObsServer(t)
	reg := obs.NewRegistry()
	c, err := Dial(addr, ClientConfig{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("k"); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot("afs_rpc_seconds")
	if s.Count != reg.CounterValue("afs_rpcs_total") {
		t.Errorf("afs_rpc_seconds count %d != afs_rpcs_total %d", s.Count, reg.CounterValue("afs_rpcs_total"))
	}
	if s.Count == 0 || s.MaxNs <= 0 {
		t.Errorf("latency histogram not recording: %+v", s)
	}
}

// TestLockCounters checks the kept-lock meters on both sides: a local
// grant, a recall answered released and one answered busy, and a recall
// the holder does not answer in time, which the server turns into a
// reclaim. The holder's callback reader delivers that recall once its
// gate opens, and the holder answers it released: the answer is what
// drops the grant from its table (its lease ran out before the reclaim,
// so it could not grant the lock locally; see
// TestPropertyStickyLockGrantSeesEarlierStores). The counters are read
// once the reader has met the closed channel behind the recall.
func TestLockCounters(t *testing.T) {
	srvReg, aReg, bReg := obs.NewRegistry(), obs.NewRegistry(), obs.NewRegistry()
	_, addr := startMeteredServer(t, srvReg)
	var gate sync.RWMutex
	a := dialClient(t, addr, ClientConfig{
		Obs:  aReg,
		Dial: heldCallbackDial(&gate),
	})
	b := dialClient(t, addr, ClientConfig{Obs: bReg})

	mustLock(t, a, "y")()
	mustLock(t, a, "y")()           // local
	releaseB := mustLock(t, b, "y") // recalled from a: released
	granted := make(chan func(), 1)
	go func() {
		release, err := a.Lock("y") // recalled from b: busy
		if err != nil {
			t.Error(err)
		}
		granted <- release
	}()
	waitFor(t, 5*time.Second, func() bool { return bReg.CounterValue("afs_lock_recalls_busy_total") == 1 })
	releaseB()
	if release := <-granted; release != nil {
		release() // kept by a
	}
	gate.Lock()
	releaseB = mustLock(t, b, "y") // a does not answer in time: reclaimed
	gate.Unlock()
	releaseB()
	waitFor(t, 5*time.Second, a.cbLost.Load) // a answered the late recall

	for _, c := range []struct {
		reg  *obs.Registry
		name string
		want int64
	}{
		{aReg, "afs_lock_local_grants_total", 1},
		{aReg, "afs_lock_recalls_released_total", 2},
		{aReg, "afs_lock_recalls_busy_total", 0},
		{bReg, "afs_lock_local_grants_total", 0},
		{bReg, "afs_lock_recalls_released_total", 0},
		{bReg, "afs_lock_recalls_busy_total", 1},
		{srvReg, "afs_server_lock_recalls_total", 3},
		{srvReg, "afs_server_lock_reclaims_total", 1},
	} {
		if got := c.reg.CounterValue(c.name); got != c.want {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
}
