package main

import (
	"fmt"
	"net"
	"sync/atomic"

	"nexus/internal/backend"
	"nexus/internal/enclave"
	"nexus/internal/merkle"
	"nexus/internal/netsim"
	"nexus/internal/obs"
	"nexus/internal/uuid"
	"nexus/internal/vfs"
)

// The interposers below sit on the public surface between two layers.
// In the untraced run they only bump atomic counters; with the tracer
// on they also time the call they forward. Each is transparent: it
// offers exactly the optional interfaces of the value it wraps, so the
// enclave's type assertions see the same capabilities with or without
// the benchmark in the path.

// storeCounts counts calls through one enclave.ObjectStore boundary.
type storeCounts struct {
	gets, puts, locks, deletes atomic.Int64
	streams                    atomic.Int64 // puts that took PutVersionedStream
	upBytes, downBytes         atomic.Int64
	treePutBytes               atomic.Int64 // uploads of freshness-tree / freshness-root
}

// freshCounts counts calls into the untrusted freshness proof service.
type freshCounts struct {
	proofs, proofBytes, updates atomic.Int64
}

// storeProbe wraps an enclave.ObjectStore. prefix names its spans
// ("store" on the ocall surface, "afs" around the AFS client); an empty
// prefix takes no spans, only counts.
type storeProbe struct {
	inner  enclave.ObjectStore
	tr     *tracer
	c      *storeCounts
	d      depth
	prefix string
}

func (p *storeProbe) start() int64 {
	if p.prefix == "" {
		return 0
	}
	return p.tr.start()
}

func (p *storeProbe) finish(op string, t0 int64) {
	if t0 != 0 {
		p.tr.finish(p.d, p.prefix+"."+op, t0)
	}
}

func (p *storeProbe) notePut(name string, n int) {
	p.c.puts.Add(1)
	p.c.upBytes.Add(int64(n))
	if name == vfs.FreshnessTreeObjectName || name == enclave.MerkleRootObjectName {
		p.c.treePutBytes.Add(int64(n))
	}
}

func (p *storeProbe) GetVersioned(name string) ([]byte, uint64, error) {
	p.c.gets.Add(1)
	t0 := p.start()
	data, version, err := p.inner.GetVersioned(name)
	p.finish("get", t0)
	p.c.downBytes.Add(int64(len(data)))
	return data, version, err
}

func (p *storeProbe) PutVersioned(name string, data []byte) (uint64, error) {
	p.notePut(name, len(data))
	t0 := p.start()
	version, err := p.inner.PutVersioned(name, data)
	p.finish("put", t0)
	return version, err
}

func (p *storeProbe) Delete(name string) error {
	p.c.deletes.Add(1)
	t0 := p.start()
	err := p.inner.Delete(name)
	p.finish("delete", t0)
	return err
}

func (p *storeProbe) Lock(name string) (func(), error) {
	p.c.locks.Add(1)
	t0 := p.start()
	release, err := p.inner.Lock(name)
	p.finish("lock", t0)
	if err != nil {
		return nil, err
	}
	return func() {
		t0 := p.start()
		release()
		p.finish("unlock", t0)
	}, nil
}

// streamPart adds enclave.StreamObjectStore.
type streamPart struct {
	p      *storeProbe
	stream enclave.StreamObjectStore
}

func (s streamPart) PutVersionedStream(name string, total int, next func() ([]byte, error)) (uint64, error) {
	s.p.notePut(name, total)
	s.p.c.streams.Add(1)
	t0 := s.p.start()
	version, err := s.stream.PutVersionedStream(name, total, next)
	s.p.finish("put_stream", t0)
	return version, err
}

// instrumenter is the optional self-instrumentation hook enclave.New
// looks for on its store.
type instrumenter interface{ Instrument(*obs.Registry) }

// instrumentPart forwards Instrument.
type instrumentPart struct{ in instrumenter }

func (i instrumentPart) Instrument(reg *obs.Registry) { i.in.Instrument(reg) }

// freshPart adds enclave.FreshnessProofStore, timing the proof service
// from above vfs.NewFreshnessStore.
type freshPart struct {
	p     *storeProbe
	fresh enclave.FreshnessProofStore
	c     *freshCounts
}

func (f freshPart) FreshnessProof(id uuid.UUID, epoch uint64) ([]byte, error) {
	f.c.proofs.Add(1)
	t0 := f.p.tr.start()
	proof, err := f.fresh.FreshnessProof(id, epoch)
	f.p.tr.finish(f.p.d, "freshness.proof", t0)
	f.c.proofBytes.Add(int64(len(proof)))
	return proof, err
}

func (f freshPart) FreshnessUpdate(epoch uint64, updates []merkle.LeafUpdate) ([][]byte, error) {
	f.c.updates.Add(1)
	t0 := f.p.tr.start()
	proofs, err := f.fresh.FreshnessUpdate(epoch, updates)
	f.p.tr.finish(f.p.d, "freshness.update", t0)
	return proofs, err
}

// wrapStore interposes on inner, mirroring its optional interfaces. The
// capability sets handled are the ones the production stacks present:
// afs.Client (streaming), vfs.VersionedStore (streaming, instrumented)
// and vfs.NewFreshnessStore over either (adds the proof service). Any
// other set is refused, so a store that gains or loses an interface is
// noticed here and not silently masked.
func wrapStore(inner enclave.ObjectStore, tr *tracer, d depth, prefix string, c *storeCounts, fc *freshCounts) (enclave.ObjectStore, error) {
	p := &storeProbe{inner: inner, tr: tr, c: c, d: d, prefix: prefix}
	stream, hasStream := inner.(enclave.StreamObjectStore)
	fresh, hasFresh := inner.(enclave.FreshnessProofStore)
	in, hasInstr := inner.(instrumenter)
	sp := streamPart{p: p, stream: stream}
	switch {
	case hasStream && hasFresh && hasInstr && fc != nil:
		return struct {
			*storeProbe
			streamPart
			freshPart
			instrumentPart
		}{p, sp, freshPart{p: p, fresh: fresh, c: fc}, instrumentPart{in}}, nil
	case hasStream && !hasFresh && hasInstr:
		return struct {
			*storeProbe
			streamPart
			instrumentPart
		}{p, sp, instrumentPart{in}}, nil
	case hasStream && !hasFresh && !hasInstr:
		return struct {
			*storeProbe
			streamPart
		}{p, sp}, nil
	}
	return nil, fmt.Errorf("benchmark: no transparent wrapper for %T (stream=%v freshness=%v instrument=%v)",
		inner, hasStream, hasFresh, hasInstr)
}

// backendCounts counts calls reaching the storage service's own store.
type backendCounts struct {
	calls              atomic.Int64
	upBytes, downBytes atomic.Int64
}

// backendProbe wraps the backend.Store under afs.NewServer (LAN) or
// under the versioned memory store (local): the storage service itself.
type backendProbe struct {
	inner *backend.MemStore
	tr    *tracer
	c     *backendCounts
}

var _ backend.Store = (*backendProbe)(nil)

func (b *backendProbe) Get(name string) ([]byte, error) {
	b.c.calls.Add(1)
	t0 := b.tr.start()
	data, err := b.inner.Get(name)
	b.tr.finish(depthLeaf, "backend.get", t0)
	b.c.downBytes.Add(int64(len(data)))
	return data, err
}

func (b *backendProbe) Put(name string, data []byte) error {
	b.c.calls.Add(1)
	b.c.upBytes.Add(int64(len(data)))
	t0 := b.tr.start()
	err := b.inner.Put(name, data)
	b.tr.finish(depthLeaf, "backend.put", t0)
	return err
}

func (b *backendProbe) Delete(name string) error {
	b.c.calls.Add(1)
	t0 := b.tr.start()
	err := b.inner.Delete(name)
	b.tr.finish(depthLeaf, "backend.delete", t0)
	return err
}

func (b *backendProbe) List(prefix string) ([]string, error) {
	b.c.calls.Add(1)
	t0 := b.tr.start()
	names, err := b.inner.List(prefix)
	b.tr.finish(depthLeaf, "backend.list", t0)
	return names, err
}

func (b *backendProbe) Lock(name string) (func(), error) {
	b.c.calls.Add(1)
	t0 := b.tr.start()
	release, err := b.inner.Lock(name)
	b.tr.finish(depthLeaf, "backend.lock", t0)
	return release, err
}

// netCounts counts writes on simulated links, both directions.
type netCounts struct {
	writes  atomic.Int64
	modelNs atomic.Int64 // Σ Profile.TransferCost(len): what the model charges
}

// connProbe times Write on a netsim connection (where the simulated
// latency and bandwidth are charged).
type connProbe struct {
	net.Conn
	tr      *tracer
	c       *netCounts
	profile netsim.Profile
}

func (c *connProbe) Write(b []byte) (int, error) {
	c.c.writes.Add(1)
	c.c.modelNs.Add(int64(c.profile.TransferCost(len(b))))
	t0 := c.tr.start()
	n, err := c.Conn.Write(b)
	c.tr.finish(depthLeaf, "netsim.write", t0)
	return n, err
}

// listenerProbe wraps the server's netsim listener so the server-side
// half of every exchange is timed too.
type listenerProbe struct {
	net.Listener
	tr      *tracer
	c       *netCounts
	profile netsim.Profile
}

func (l *listenerProbe) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &connProbe{Conn: conn, tr: l.tr, c: l.c, profile: l.profile}, nil
}
