// Package bench is the experiment harness that regenerates every table
// and figure of the NEXUS evaluation (DSN'19 §VII).
//
// An Env stands up the paper's testbed in-process: one AFS-like file
// server, and two clients of it — a NEXUS stack (simulated-SGX enclave,
// encrypted metadata, caching AFS client) and an unmodified baseline
// (plain files over the same AFS client). Each experiment runs the same
// workload over both and reports latencies in the paper's format,
// including the Metadata-I/O and Enclave-runtime breakdowns.
package bench

import (
	"fmt"
	"net"
	"time"

	"nexus"
	"nexus/internal/afs"
	"nexus/internal/backend"
	"nexus/internal/fsapi"
	"nexus/internal/netsim"
	"nexus/internal/plainfs"
)

// Config tunes the simulated testbed.
type Config struct {
	// Profile is the simulated network between clients and server
	// (default netsim.LAN, approximating the paper's campus cell).
	Profile netsim.Profile
	// Loopback disables network simulation entirely (raw local TCP),
	// overriding Profile. Used by fast smoke tests.
	Loopback bool
	// TransitionCost is the per-ecall/ocall charge (default 4 µs,
	// roughly the published SGX transition cost).
	TransitionCost time.Duration
	// BucketSize and ChunkSize are the NEXUS parameters (paper: 128
	// entries, 1 MiB).
	BucketSize uint32
	ChunkSize  uint32
	// CryptoWorkers bounds the parallel chunk-crypto fan-out (0 =
	// GOMAXPROCS with serial small-file fallback, 1 = serial).
	CryptoWorkers int
	// Runs is the number of repetitions averaged per measurement
	// (paper: 10 for microbenchmarks, 25 for applications).
	Runs int
	// Scale divides workload file sizes to keep harness runtime
	// tractable; counts are never scaled. Scale 1 reproduces the paper's
	// sizes.
	Scale int64
}

func (c Config) withDefaults() Config {
	if c.Loopback {
		c.Profile = netsim.Loopback
	} else if c.Profile.IsZero() {
		c.Profile = netsim.LAN
	}
	if c.TransitionCost == 0 {
		c.TransitionCost = 4 * time.Microsecond
	}
	if c.Runs <= 0 {
		c.Runs = 3
	}
	if c.Scale <= 0 {
		c.Scale = 1
	}
	return c
}

// Env is a running testbed.
type Env struct {
	Config Config

	// Obs is the observability registry shared by the whole NEXUS stack
	// (vfs facade, enclave, SGX transitions, and the NEXUS-side AFS
	// client), so experiments can read latency histograms after a run.
	Obs *nexus.Obs

	server   *afs.Server
	listener net.Listener

	// NEXUS stack.
	NexusClient *nexus.Client
	NexusVolume *nexus.Volume
	NexusAFS    *afs.Client
	NexusFS     fsapi.FileSystem
	IAS         *nexus.AttestationService
	owner       nexus.Identity

	// Baseline stack.
	PlainAFS *afs.Client
	PlainFS  fsapi.FileSystem
}

// NewEnv stands up the testbed.
func NewEnv(cfg Config) (*Env, error) {
	cfg = cfg.withDefaults()
	env := &Env{Config: cfg}

	env.server = afs.NewServer(backend.NewMemStore())
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("bench: listen: %w", err)
	}
	env.listener = netsim.NewListener(l, cfg.Profile)
	go func() { _ = env.server.Serve(env.listener) }()
	addr := l.Addr().String()

	// NEXUS stack. One registry observes every layer of it.
	env.Obs = nexus.NewObs()
	nexusAFS, err := afs.Dial(addr, afs.ClientConfig{Profile: cfg.Profile, Obs: env.Obs})
	if err != nil {
		env.Close()
		return nil, err
	}
	env.NexusAFS = nexusAFS
	ias, err := nexus.NewAttestationService()
	if err != nil {
		env.Close()
		return nil, err
	}
	env.IAS = ias
	client, err := nexus.NewClient(nexus.ClientConfig{
		Store:          nexusAFS,
		IAS:            ias,
		BucketSize:     cfg.BucketSize,
		ChunkSize:      cfg.ChunkSize,
		CryptoWorkers:  cfg.CryptoWorkers,
		TransitionCost: cfg.TransitionCost,
		Obs:            env.Obs,
	})
	if err != nil {
		env.Close()
		return nil, err
	}
	env.NexusClient = client
	owner, err := nexus.NewIdentity("bench-owner")
	if err != nil {
		env.Close()
		return nil, err
	}
	env.owner = owner
	vol, _, err := client.CreateVolume(owner)
	if err != nil {
		env.Close()
		return nil, err
	}
	env.NexusVolume = vol
	env.NexusFS = fsapi.Nexus(vol.FS())

	// Baseline stack: plain files over its own AFS client.
	plainAFS, err := afs.Dial(addr, afs.ClientConfig{Profile: cfg.Profile})
	if err != nil {
		env.Close()
		return nil, err
	}
	env.PlainAFS = plainAFS
	env.PlainFS = plainfs.New(plainAFS)
	return env, nil
}

// Close tears the testbed down.
func (e *Env) Close() {
	if e.NexusAFS != nil {
		_ = e.NexusAFS.Close()
	}
	if e.PlainAFS != nil {
		_ = e.PlainAFS.Close()
	}
	if e.server != nil {
		_ = e.server.Close()
	}
}

// FlushCaches evicts every cache layer (AFS client caches and the
// in-enclave metadata cache), as the paper does before each run.
func (e *Env) FlushCaches() {
	e.NexusAFS.FlushCache()
	e.PlainAFS.FlushCache()
	e.NexusClient.Enclave().DropCaches()
}

// Both runs fn over the baseline and NEXUS filesystems in turn,
// returning (plain, nexus) mean latencies over cfg.Runs repetitions.
// prepare, when non-nil, resets state before each timed repetition and
// is not counted.
func (e *Env) Both(prepare func(fs fsapi.FileSystem, root string) error,
	fn func(fs fsapi.FileSystem, root string) error) (plain, nx time.Duration, err error) {

	run := func(fs fsapi.FileSystem, root string) (time.Duration, error) {
		var total time.Duration
		for i := 0; i < e.Config.Runs; i++ {
			iterRoot := fmt.Sprintf("%s/run%d", root, i)
			if prepare != nil {
				if err := prepare(fs, iterRoot); err != nil {
					return 0, err
				}
			}
			e.FlushCaches()
			start := time.Now()
			if err := fn(fs, iterRoot); err != nil {
				return 0, err
			}
			total += time.Since(start)
		}
		return total / time.Duration(e.Config.Runs), nil
	}

	plain, err = run(e.PlainFS, "/bench-plain")
	if err != nil {
		return 0, 0, fmt.Errorf("bench: baseline: %w", err)
	}
	nx, err = run(e.NexusFS, "/bench-nexus")
	if err != nil {
		return 0, 0, fmt.Errorf("bench: nexus: %w", err)
	}
	return plain, nx, nil
}

// ratio formats nexus/plain as the paper's ×N overhead factor.
func ratio(plain, nx time.Duration) float64 {
	if plain <= 0 {
		return 0
	}
	return float64(nx) / float64(plain)
}
