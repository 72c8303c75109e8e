package main

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"nexus"
	"nexus/internal/afs"
	"nexus/internal/backend"
	"nexus/internal/netsim"
	"nexus/internal/vfs"
)

// transitionCost is the simulated cost of one ecall or ocall crossing.
const transitionCost = 4 * time.Microsecond

// canary is written into every generated file and every generated path
// name; it must never appear in an object held by the storage service.
const canary = "NXPLAINCANARY"

// counter indexes one cumulative count read from the stack. Phases are
// measured as the difference of two tallies.
type counter int

const (
	cOcallGets counter = iota
	cOcallPuts
	cOcallLocks
	cOcallDeletes
	cOcallStreams
	cOcallUp
	cOcallDown
	cLowStreams
	cTreePutBytes
	cProofs
	cProofBytes
	cFreshUpdates
	cBackendCalls
	cBackendUp
	cBackendDown
	cNetWrites
	cNetModelNs
	cAFSRPCs
	cAFSCacheHits
	cAFSReconnects
	cSrvFetches
	cSrvStores
	cEcalls
	cOcalls
	cInEnclaveNs
	cMetaLoads
	cMetaCacheHits
	cMetaFlushes
	cMetaBytes
	cDataBytes
	cPoolHits
	cPoolMisses
	numCounters
)

type tally [numCounters]int64

func (a tally) sub(b tally) tally {
	for i := range a {
		a[i] -= b[i]
	}
	return a
}

func (a tally) add(b tally) tally {
	for i := range a {
		a[i] += b[i]
	}
	return a
}

// stack is one storage deployment under test: the storage service and
// every client machine attached to it.
//
// "LAN" is an in-process afs.Server over a memory store, reached through
// netsim.LAN (500 µs RTT, 125 MiB/s). The same server also listens on a
// second, unsimulated port that only set-up uses, so populating a volume
// does not spend the run's time budget on modelled wire time.
// "local" is the paper's store-data-locally deployment: the versioned
// memory store, no afs and no netsim.
type stack struct {
	tr    *tracer
	local bool
	mem   *backend.MemStore
	store *backendProbe
	ias   *nexus.AttestationService

	server   *afs.Server
	lanAddr  string
	setupNet string
	serving  sync.WaitGroup

	ocall, low storeCounts // timed machines only
	fresh      freshCounts
	backend    backendCounts
	net        netCounts

	timed   []*machine // machines whose costs the run accounts for
	scratch []*machine // set-up machines
}

// machine is one user's computer: an SGX platform with the NeXUS
// enclave, stacked on its own AFS client (LAN) or on the local store.
type machine struct {
	afs *afs.Client // nil on the local deployment
	nx  *nexus.Client
}

func newStack(tr *tracer, local bool) (*stack, error) {
	s := &stack{tr: tr, local: local, mem: backend.NewMemStore()}
	s.store = &backendProbe{inner: s.mem, tr: tr, c: &s.backend}
	ias, err := nexus.NewAttestationService()
	if err != nil {
		return nil, fmt.Errorf("attestation service: %w", err)
	}
	s.ias = ias
	if local {
		return s, nil
	}
	s.server = afs.NewServer(s.store)
	lan, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	plain, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = lan.Close() // the listen error is the one to report
		return nil, fmt.Errorf("listen: %w", err)
	}
	s.lanAddr, s.setupNet = lan.Addr().String(), plain.Addr().String()
	for _, l := range []net.Listener{
		&listenerProbe{Listener: netsim.NewListener(lan, netsim.LAN), tr: tr, c: &s.net, profile: netsim.LAN},
		plain,
	} {
		s.serving.Add(1)
		go func() {
			defer s.serving.Done()
			_ = s.server.Serve(l) // always ErrClosed after close
		}()
	}
	return s, nil
}

// newMachine attaches a machine. Timed machines talk over the simulated
// LAN through the benchmark's interposers and are accounted for; set-up
// machines use the unsimulated port. platformSeed, when set, makes the
// machine's sealing keys reproducible, so a later machine with the same
// seed is the same computer after a restart.
func (s *stack) newMachine(timed bool, platformSeed []byte) (*machine, error) {
	m := &machine{}
	ocall, low, fresh := &storeCounts{}, &storeCounts{}, &freshCounts{}
	if timed {
		ocall, low, fresh = &s.ocall, &s.low, &s.fresh
	}
	var inner nexus.ObjectStore
	lowPrefix := ""
	switch {
	case s.local:
		inner = vfs.NewVersionedStore(s.store)
	case timed:
		client, err := afs.Dial(s.lanAddr, afs.ClientConfig{
			Profile: netsim.LAN,
			Dial: func(addr string) (net.Conn, error) {
				conn, err := netsim.Dial(addr, netsim.LAN)
				if err != nil {
					return nil, err
				}
				return &connProbe{Conn: conn, tr: s.tr, c: &s.net, profile: netsim.LAN}, nil
			},
		})
		if err != nil {
			return nil, fmt.Errorf("dialing storage service: %w", err)
		}
		m.afs, inner, lowPrefix = client, client, "afs"
	default:
		client, err := afs.Dial(s.setupNet, afs.ClientConfig{Profile: netsim.Loopback})
		if err != nil {
			return nil, fmt.Errorf("dialing storage service: %w", err)
		}
		m.afs, inner = client, client
	}
	below, err := wrapStore(inner, s.tr, depthAFS, lowPrefix, low, nil)
	if err == nil {
		var above nexus.ObjectStore
		above, err = wrapStore(vfs.NewFreshnessStore(below), s.tr, depthOcall, "store", ocall, fresh)
		if err == nil {
			// Production defaults: Merkle freshness, write-back, group
			// keys, fixed 1 MiB chunks, automatic crypto width.
			m.nx, err = nexus.NewClient(nexus.ClientConfig{
				Store:          above,
				IAS:            s.ias,
				TransitionCost: transitionCost,
				PlatformSeed:   platformSeed,
			})
		}
	}
	if err != nil {
		if m.afs != nil {
			_ = m.afs.Close() // the construction error is the one to report
		}
		return nil, err
	}
	if timed {
		s.timed = append(s.timed, m)
	} else {
		s.scratch = append(s.scratch, m)
	}
	return m, nil
}

// read sums every cumulative counter of the stack.
func (s *stack) read() tally {
	var t tally
	t[cOcallGets], t[cOcallPuts] = s.ocall.gets.Load(), s.ocall.puts.Load()
	t[cOcallLocks], t[cOcallDeletes] = s.ocall.locks.Load(), s.ocall.deletes.Load()
	t[cOcallStreams] = s.ocall.streams.Load()
	t[cOcallUp], t[cOcallDown] = s.ocall.upBytes.Load(), s.ocall.downBytes.Load()
	t[cLowStreams] = s.low.streams.Load()
	t[cTreePutBytes] = s.low.treePutBytes.Load()
	t[cProofs], t[cProofBytes] = s.fresh.proofs.Load(), s.fresh.proofBytes.Load()
	t[cFreshUpdates] = s.fresh.updates.Load()
	t[cBackendCalls] = s.backend.calls.Load()
	t[cBackendUp], t[cBackendDown] = s.backend.upBytes.Load(), s.backend.downBytes.Load()
	t[cNetWrites], t[cNetModelNs] = s.net.writes.Load(), s.net.modelNs.Load()
	if s.server != nil {
		t[cSrvFetches], t[cSrvStores] = s.server.Stats()
	}
	for _, m := range s.timed {
		if m.afs != nil {
			rpcs, hits := m.afs.Stats()
			t[cAFSRPCs] += rpcs
			t[cAFSCacheHits] += hits
			t[cAFSReconnects] += m.afs.Reconnects()
		}
		e := m.nx.Enclave()
		t[cEcalls] += e.SGX().EcallCount()
		t[cOcalls] += e.SGX().OcallCount()
		t[cInEnclaveNs] += int64(e.SGX().TimeInEnclave())
		st := e.Stats()
		t[cMetaLoads] += st.MetadataLoads
		t[cMetaCacheHits] += st.MetadataCacheHits
		t[cMetaFlushes] += st.MetadataFlushes
		t[cMetaBytes] += st.MetadataBytesWritten
		t[cDataBytes] += st.DataBytesWritten
		t[cPoolHits] += st.ChunkPoolHits
		t[cPoolMisses] += st.ChunkPoolMisses
	}
	return t
}

// canaryLeaks counts stored objects that contain the plaintext canary.
func (s *stack) canaryLeaks() (int, error) {
	names, err := s.mem.List("")
	if err != nil {
		return 0, err
	}
	leaks := 0
	for _, name := range names {
		data, err := s.mem.Get(name)
		if err != nil {
			return 0, err
		}
		if bytes.Contains(data, []byte(canary)) || strings.Contains(name, canary) {
			leaks++
		}
	}
	return leaks, nil
}

// close detaches every machine and stops the storage service, waiting
// for its accept loops to end.
func (s *stack) close() {
	for _, m := range append(s.timed, s.scratch...) {
		if m.afs != nil {
			_ = m.afs.Close() // tear-down: nothing left to report to
		}
	}
	if s.server != nil {
		_ = s.server.Close() // tear-down: nothing left to report to
		s.serving.Wait()
	}
}
