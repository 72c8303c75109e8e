package afs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nexus"
	"nexus/internal/backend"
	"nexus/internal/netsim"
)

// The chaos suite drives a mixed read/write/lock workload through the
// seeded fault injector — dropped connections, mid-frame truncations,
// refused dials, latency spikes, and a scripted server kill/restart —
// and asserts the safety properties the AFS substrate promises NEXUS:
// no write is lost or torn, reads never go backwards, every RPC either
// completes or fails with a typed error inside its deadline, and nothing
// leaks when the dust settles. Run it under -race; CI does.

// chaosSeed returns the fault-schedule seed, overridable via
// NEXUS_CHAOS_SEED so CI can run a fixed seed matrix.
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	env := os.Getenv("NEXUS_CHAOS_SEED")
	if env == "" {
		return 1
	}
	seed, err := strconv.ParseInt(env, 10, 64)
	if err != nil {
		t.Fatalf("NEXUS_CHAOS_SEED=%q: %v", env, err)
	}
	return seed
}

// chaosCluster runs the AFS server and performs scripted kill/restarts
// at the injector's restart points. The backing store and the per-file
// version counters survive a restart, the way a real fileserver recovers
// both from its vice partitions.
type chaosCluster struct {
	t     *testing.T
	store *backend.MemStore
	addr  string

	mu  sync.Mutex
	srv *Server // guarded by mu

	restarts atomic.Int64
	done     chan struct{}
	wg       sync.WaitGroup
}

func startChaosCluster(t *testing.T, in *netsim.Injector) *chaosCluster {
	t.Helper()
	c := &chaosCluster{t: t, store: backend.NewMemStore(), done: make(chan struct{})}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c.addr = l.Addr().String()
	c.srv = NewServer(c.store)
	srv := c.srv
	go func() { _ = srv.Serve(l) }()
	c.wg.Add(1)
	go c.watch(in)
	return c
}

func (c *chaosCluster) watch(in *netsim.Injector) {
	defer c.wg.Done()
	for {
		select {
		case <-c.done:
			return
		case <-in.Restarts():
			c.restart()
		}
	}
}

// restart kills the server mid-flight — every accepted connection dies —
// and brings up a replacement on the same address.
func (c *chaosCluster) restart() {
	c.mu.Lock()
	old := c.srv
	c.mu.Unlock()
	_ = old.Close()
	time.Sleep(20 * time.Millisecond) // let in-flight dispatches drain
	next := NewServer(c.store)
	next.SetVersions(old.VersionSnapshot())
	var l net.Listener
	var err error
	for i := 0; i < 200; i++ {
		l, err = net.Listen("tcp", c.addr)
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		c.t.Errorf("chaos: rebinding %s after restart: %v", c.addr, err)
		return
	}
	go func() { _ = next.Serve(l) }()
	c.mu.Lock()
	c.srv = next
	c.mu.Unlock()
	c.restarts.Add(1)
}

func (c *chaosCluster) stop() {
	close(c.done)
	c.wg.Wait()
	c.mu.Lock()
	srv := c.srv
	c.mu.Unlock()
	_ = srv.Close()
}

// Chaos payloads are self-validating: a header naming (worker, key, seq)
// followed by filler derived deterministically from that header, so a
// torn or bit-flipped write cannot decode cleanly.

func chaosKey(worker, k int) string { return fmt.Sprintf("chaos-%d-%d", worker, k) }

func chaosPayload(worker, k int, seq uint64) []byte {
	fill := 32 + int(seq%197)
	b := make([]byte, 24+fill)
	binary.LittleEndian.PutUint64(b[0:8], uint64(worker))
	binary.LittleEndian.PutUint64(b[8:16], uint64(k))
	binary.LittleEndian.PutUint64(b[16:24], seq)
	rng := netsim.NewRand(int64(worker)<<40 ^ int64(k)<<32 ^ int64(seq))
	_, _ = rng.Read(b[24:])
	return b
}

func decodeChaosPayload(b []byte) (worker, k int, seq uint64, err error) {
	if len(b) < 24 {
		return 0, 0, 0, fmt.Errorf("short payload: %d bytes", len(b))
	}
	worker = int(binary.LittleEndian.Uint64(b[0:8]))
	k = int(binary.LittleEndian.Uint64(b[8:16]))
	seq = binary.LittleEndian.Uint64(b[16:24])
	if !bytes.Equal(b, chaosPayload(worker, k, seq)) {
		return 0, 0, 0, fmt.Errorf("corrupt payload claiming worker %d key %d seq %d", worker, k, seq)
	}
	return worker, k, seq, nil
}

// chaosKeyState is a single worker's ground truth for one of its keys.
// Each key has exactly one writer, so per-key writes are sequential and
// the final value must carry a seq the worker actually sent.
type chaosKeyState struct {
	nextSeq  uint64
	maxAcked uint64          // highest seq the server acknowledged
	acked    map[uint64]bool // seqs with acknowledged stores
	unknown  map[uint64]bool // seqs interrupted mid-exchange: applied or not
}

// chaosCounters is the cross-worker ground truth for the lock-protected
// shared counter.
type chaosCounters struct {
	acked   atomic.Int64 // increments acknowledged while the lock was provably held
	unknown atomic.Int64 // increments with unknown outcome, still serialized by the lock
	tainted atomic.Int64 // increments that may have been applied after the lock was lost
}

const chaosCounterKey = "chaos-shared-counter"

// chaosLockedIncrement performs one lock-protected read-modify-write of
// the shared counter, classifying the outcome against the lock lease:
// the lock dies with its connection, so an operation that rode a
// reconnect (generation change) may have run lockless and is tainted.
func chaosLockedIncrement(t *testing.T, w int, c *Client, ctr *chaosCounters) {
	rel, err := c.Lock(chaosCounterKey)
	if err != nil {
		if !backend.IsUnavailable(err) {
			t.Errorf("worker %d: lock: unexpected error %v", w, err)
		}
		return
	}
	defer rel()
	gen := c.gen.Load()
	var cur uint64
	data, err := c.Get(chaosCounterKey)
	switch {
	case err == nil && len(data) == 8:
		cur = binary.LittleEndian.Uint64(data)
	case err == nil:
		t.Errorf("worker %d: counter is %d bytes, want 8", w, len(data))
		return
	case errors.Is(err, backend.ErrNotExist):
		// First increment ever.
	case backend.IsUnavailable(err):
		return
	default:
		t.Errorf("worker %d: counter read: unexpected error %v", w, err)
		return
	}
	if c.gen.Load() != gen {
		// The read reconnected, so the server already released our lock;
		// writing now would race other holders. Abort the RMW.
		return
	}
	next := make([]byte, 8)
	binary.LittleEndian.PutUint64(next, cur+1)
	err = c.Put(chaosCounterKey, next)
	held := c.gen.Load() == gen
	switch {
	case err == nil && held:
		ctr.acked.Add(1)
	case err == nil || errors.Is(err, backend.ErrInterrupted):
		if held {
			ctr.unknown.Add(1)
		} else {
			ctr.tainted.Add(1)
		}
	case backend.IsUnavailable(err):
		// Never delivered: provably not applied.
	default:
		t.Errorf("worker %d: counter write: unexpected error %v", w, err)
	}
}

func chaosClientConfig(seed int64, w int, in *netsim.Injector) ClientConfig {
	return ClientConfig{
		RPCTimeout: 2 * time.Second,
		Retry: RetryPolicy{
			MaxAttempts: 8,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  50 * time.Millisecond,
			Seed:        seed<<8 | int64(w),
		},
		Dial: in.Dialer(netsim.Loopback),
	}
}

func chaosWorker(t *testing.T, w int, seed int64, addr string, in *netsim.Injector,
	states []*chaosKeyState, ctr *chaosCounters, workers, keysPer, ops int) {
	c, err := Dial(addr, chaosClientConfig(seed, w, in))
	if err != nil {
		t.Errorf("worker %d: dial: %v", w, err)
		return
	}
	defer c.Close()
	rng := netsim.NewRand(seed*1009 + int64(w))
	lastSeen := map[string]uint64{}
	// No-hang bound: every op must finish inside its attempts' deadlines
	// plus backoff, with margin.
	const opBound = 25 * time.Second
	for i := 0; i < ops; i++ {
		k := rng.Intn(keysPer)
		ks := states[k]
		start := time.Now()
		switch dice := rng.Intn(10); {
		case dice < 5: // store to a key this worker owns
			ks.nextSeq++
			seq := ks.nextSeq
			err := c.Put(chaosKey(w, k), chaosPayload(w, k, seq))
			switch {
			case err == nil:
				ks.acked[seq] = true
				ks.maxAcked = seq
			case errors.Is(err, backend.ErrInterrupted):
				ks.unknown[seq] = true
			case backend.IsUnavailable(err):
				// Never delivered: this seq provably never hits the store.
			default:
				t.Errorf("worker %d: put %s seq %d: unexpected error %v", w, chaosKey(w, k), seq, err)
			}
		case dice < 8: // read any worker's key
			ow, okey := rng.Intn(workers), rng.Intn(keysPer)
			name := chaosKey(ow, okey)
			data, err := c.Get(name)
			switch {
			case err == nil:
				rw, rk, seq, derr := decodeChaosPayload(data)
				if derr != nil {
					t.Errorf("worker %d: torn read of %s: %v", w, name, derr)
					break
				}
				if rw != ow || rk != okey {
					t.Errorf("worker %d: read of %s returned payload for worker %d key %d", w, name, rw, rk)
				}
				if last := lastSeen[name]; seq < last {
					t.Errorf("worker %d: %s went backwards: seq %d after %d", w, name, seq, last)
				}
				lastSeen[name] = seq
			case errors.Is(err, backend.ErrNotExist) || backend.IsUnavailable(err):
				// Acceptable under fault injection.
			default:
				t.Errorf("worker %d: get %s: unexpected error %v", w, name, err)
			}
		default: // lock-protected RMW on the shared counter
			chaosLockedIncrement(t, w, c, ctr)
		}
		if el := time.Since(start); el > opBound {
			t.Errorf("worker %d: op %d took %v, exceeding the no-hang bound %v", w, i, el, opBound)
		}
	}
}

func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d alive, baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestChaosSeededFaultInjection(t *testing.T) {
	seed := chaosSeed(t)
	const (
		workers = 4
		keysPer = 3
		ops     = 180
	)
	profile := netsim.FaultProfile{
		Seed:               seed,
		DialRefuse:         0.04,
		Cut:                0.03,
		Truncate:           0.03,
		Spike:              0.04,
		SpikeMax:           200 * time.Microsecond,
		RestartAfterFaults: []int64{25},
	}
	// The schedule is a pure function of the profile: re-deriving it must
	// reproduce it byte for byte, which is what makes a CI seed re-run an
	// exact replay.
	replay := profile
	if profile.Schedule(64, 4096) != replay.Schedule(64, 4096) {
		t.Fatal("fault schedule is not byte-for-byte reproducible from its seed")
	}
	t.Logf("chaos seed %d", seed)

	baseline := runtime.NumGoroutine()
	in := netsim.NewInjector(profile)
	cluster := startChaosCluster(t, in)

	states := make([][]*chaosKeyState, workers)
	for w := range states {
		states[w] = make([]*chaosKeyState, keysPer)
		for k := range states[w] {
			states[w][k] = &chaosKeyState{
				acked:   make(map[uint64]bool),
				unknown: make(map[uint64]bool),
			}
		}
	}
	ctr := &chaosCounters{}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			chaosWorker(t, w, seed, cluster.addr, in, states[w], ctr, workers, keysPer, ops)
		}(w)
	}
	wg.Wait()

	// If the workload finished light on faults (interleaving-dependent),
	// burn idempotent pings through the injector until the scheduled
	// fault mass lands.
	if in.Faults() < 55 {
		padCfg := chaosClientConfig(seed, workers, in)
		padCfg.CacheBytes = -1
		if pad, err := Dial(cluster.addr, padCfg); err == nil {
			for i := 0; i < 4000 && in.Faults() < 55; i++ {
				_ = pad.Ping()
			}
			_ = pad.Close()
		}
	}
	if in.Faults() < 50 {
		t.Errorf("only %d faults injected, want >= 50", in.Faults())
	}
	if cluster.restarts.Load() < 1 {
		t.Errorf("no scripted server restart fired (faults=%d)", in.Faults())
	}

	// Healing phase: injection off, the cluster must converge.
	in.Disable()
	verifier, err := Dial(cluster.addr, ClientConfig{
		RPCTimeout: 5 * time.Second,
		Retry:      RetryPolicy{MaxAttempts: 10, BaseBackoff: 5 * time.Millisecond, Seed: seed},
	})
	if err != nil {
		t.Fatalf("verifier dial after healing: %v", err)
	}
	if err := verifier.Ping(); err != nil {
		t.Fatalf("verifier ping after healing: %v", err)
	}

	// Zero lost or torn writes: every key's final value decodes cleanly,
	// is at least the last acknowledged write, and is a value its owner
	// actually sent.
	for w := 0; w < workers; w++ {
		for k := 0; k < keysPer; k++ {
			name := chaosKey(w, k)
			ks := states[w][k]
			data, err := verifier.Get(name)
			if errors.Is(err, backend.ErrNotExist) {
				if ks.maxAcked != 0 {
					t.Errorf("%s: acknowledged seq %d but the key does not exist", name, ks.maxAcked)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s: final read: %v", name, err)
				continue
			}
			rw, rk, seq, derr := decodeChaosPayload(data)
			if derr != nil {
				t.Errorf("%s: final value corrupt: %v", name, derr)
				continue
			}
			if rw != w || rk != k {
				t.Errorf("%s: final value belongs to worker %d key %d", name, rw, rk)
			}
			if seq < ks.maxAcked {
				t.Errorf("%s: lost write: final seq %d < acknowledged %d", name, seq, ks.maxAcked)
			}
			if !ks.acked[seq] && !ks.unknown[seq] {
				t.Errorf("%s: phantom write: final seq %d was never sent (or provably never delivered)", name, seq)
			}
		}
	}

	// The lock-protected counter: with no tainted (post-lease) writes,
	// its final value brackets exactly between the acknowledged and the
	// acknowledged-plus-unknown increment counts.
	acked, unknown, tainted := ctr.acked.Load(), ctr.unknown.Load(), ctr.tainted.Load()
	data, err := verifier.Get(chaosCounterKey)
	switch {
	case errors.Is(err, backend.ErrNotExist):
		if acked > 0 {
			t.Errorf("counter: %d acknowledged increments but the key does not exist", acked)
		}
	case err != nil:
		t.Errorf("counter: final read: %v", err)
	case len(data) != 8:
		t.Errorf("counter: final value is %d bytes, want 8", len(data))
	default:
		final := int64(binary.LittleEndian.Uint64(data))
		if tainted == 0 {
			if final < acked || final > acked+unknown {
				t.Errorf("counter: final %d outside [acked=%d, acked+unknown=%d]", final, acked, acked+unknown)
			}
		} else if final > acked+unknown+tainted {
			t.Errorf("counter: final %d exceeds every increment ever sent (%d)", final, acked+unknown+tainted)
		}
		t.Logf("chaos: %d faults, %d restarts, counter final=%d acked=%d unknown=%d tainted=%d",
			in.Faults(), cluster.restarts.Load(), final, acked, unknown, tainted)
	}

	_ = verifier.Close()
	cluster.stop()
	waitForGoroutines(t, baseline)
}

// TestChaosMerkleFreshnessMidDrainRestart runs the full NEXUS stack —
// merkle freshness mode plus write-back metadata — over the seeded
// fault injector, with scripted server kills landing while metadata
// drains (and their root updates) are in flight. Safety property: no
// torn root update survives. After healing, the writer's retried drain
// must converge, and a brand-new client mounting from sealed state only
// must verify every proof and read back every acknowledged write — a
// torn tree/root pair would surface as ErrBadProof or ErrStaleObject
// at mount.
func TestChaosMerkleFreshnessMidDrainRestart(t *testing.T) {
	seed := chaosSeed(t)
	rng := netsim.NewRand(seed * 7919)
	profile := netsim.FaultProfile{
		Seed:     seed,
		Cut:      0.02,
		Truncate: 0.02,
		Spike:    0.03,
		SpikeMax: 200 * time.Microsecond,
	}
	in := netsim.NewInjector(profile)
	cluster := startChaosCluster(t, in)
	t.Logf("merkle chaos seed %d", seed)

	afsC, err := Dial(cluster.addr, chaosClientConfig(seed, 77, in))
	if err != nil {
		t.Fatal(err)
	}
	ias, err := nexus.NewAttestationService()
	if err != nil {
		t.Fatal(err)
	}
	platformSeed := []byte(fmt.Sprintf("merkle-chaos-platform-%d", seed))
	reg := nexus.NewObs()
	owner, err := nexus.NewIdentity("chaos-owner")
	if err != nil {
		t.Fatal(err)
	}

	// Volume setup runs through the faulty link too; a fault can land
	// mid-creation. Each retry wipes the partial volume server-side
	// (direct store access, not through the network) and starts over
	// with a fresh client.
	var (
		client *nexus.Client
		vol    *nexus.Volume
		sealed []byte
	)
	for attempt := 0; attempt < 30 && vol == nil; attempt++ {
		if attempt > 0 {
			if names, lerr := cluster.store.List(""); lerr == nil {
				for _, n := range names {
					_ = cluster.store.Delete(n)
				}
			}
			afsC.FlushCache()
			time.Sleep(5 * time.Millisecond)
		}
		c, err := nexus.NewClient(nexus.ClientConfig{
			Store:        afsC,
			IAS:          ias,
			PlatformSeed: platformSeed,
			Obs:          reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		v, s, err := c.CreateVolume(owner)
		if err != nil {
			continue
		}
		if err := v.FS().Mkdir("/chaos"); err != nil {
			continue
		}
		client, vol, sealed = c, v, s
	}
	if vol == nil {
		t.Fatal("volume setup never succeeded under injection")
	}
	nfs := vol.FS()
	encl := client.Enclave()

	// acked: writes whose WriteFile AND a later successful drain both
	// returned nil — these must survive everything below. pending:
	// written but not yet known drained. tainted: paths whose *latest*
	// WriteFile failed with unknown outcome — the data chunk may be
	// half-overwritten on the server, so the final read may fail, but
	// only with a typed authentication error, never silent corruption.
	acked := map[string]uint64{}
	pending := map[string]uint64{}
	tainted := map[string]bool{}
	commitPending := func() {
		for p, s := range pending {
			acked[p] = s
		}
		pending = map[string]uint64{}
	}

	const (
		files  = 8
		rounds = 48
	)
	for i := 0; i < rounds; i++ {
		k := i % files
		p := fmt.Sprintf("/chaos/f%02d", k)
		seq := uint64(i + 1)
		if err := nfs.WriteFile(p, chaosPayload(77, k, seq)); err == nil {
			pending[p] = seq
			tainted[p] = false
		} else {
			tainted[p] = true
		}
		switch {
		case i == rounds/3 || i == 2*rounds/3:
			// Kill the server while the drain — and its merkle root
			// update — is in flight.
			done := make(chan error, 1)
			go func() { done <- encl.SyncMetadata() }()
			cluster.restart()
			if err := <-done; err == nil {
				commitPending()
			}
		case rng.Intn(4) == 0:
			if err := encl.SyncMetadata(); err == nil {
				commitPending()
			}
		}
	}

	// Healing: injection off, the writer's drain must converge.
	in.Disable()
	var drainErr error
	for attempt := 0; attempt < 40; attempt++ {
		if drainErr = encl.SyncMetadata(); drainErr == nil {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	if drainErr != nil {
		t.Fatalf("drain never converged after healing: %v", drainErr)
	}
	commitPending()

	if n := reg.CounterValue("enclave_freshness_proofs_total"); n == 0 {
		t.Error("merkle mode verified no proofs during the workload")
	}
	if n := reg.CounterValue("enclave_freshness_root_updates_total"); n == 0 {
		t.Error("merkle mode committed no root updates during the workload")
	}

	// A brand-new client (fresh platform state from the same seed,
	// fresh connection, fresh proof-store wrapper) mounts from sealed
	// state only: every proof must verify and every acknowledged write
	// must be present and untorn.
	afs2, err := Dial(cluster.addr, ClientConfig{
		RPCTimeout: 5 * time.Second,
		Retry:      RetryPolicy{MaxAttempts: 10, BaseBackoff: 5 * time.Millisecond, Seed: seed},
	})
	if err != nil {
		t.Fatal(err)
	}
	client2, err := nexus.NewClient(nexus.ClientConfig{
		Store:        afs2,
		IAS:          ias,
		PlatformSeed: platformSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	vol2, err := client2.Mount(owner, sealed, vol.ID())
	if err != nil {
		t.Fatalf("fresh merkle mount after chaos: %v (torn root update?)", err)
	}
	nfs2 := vol2.FS()
	for p, seq := range acked {
		data, err := nfs2.ReadFile(p)
		if err != nil {
			// A path whose latest WriteFile had an unknown outcome may
			// hold a half-overwritten chunk: detection (a typed error)
			// is the required behaviour then.
			if tainted[p] {
				t.Logf("%s: tainted write detected and rejected: %v", p, err)
				continue
			}
			t.Errorf("%s: acknowledged write unreadable after chaos: %v", p, err)
			continue
		}
		w, _, got, derr := decodeChaosPayload(data)
		if derr != nil {
			t.Errorf("%s: torn content after chaos: %v", p, derr)
			continue
		}
		if w != 77 {
			t.Errorf("%s: content belongs to worker %d", p, w)
		}
		if got < seq {
			t.Errorf("%s: lost acknowledged write: seq %d < acked %d", p, got, seq)
		}
	}

	_ = afsC.Close()
	_ = afs2.Close()
	cluster.stop()
}
