// Package obs is the unified observability layer: an allocation-light,
// race-clean metrics registry (counters, gauges, fixed-bucket latency
// histograms) plus lightweight trace spans that follow one operation
// across the vfs → enclave ecall boundary → afs RPC chain.
//
// Design constraints, in order:
//
//  1. Hot-path recording must not allocate. Counter.Add, Gauge.Set and
//     Histogram.Record are a handful of atomic ops on pre-registered
//     instruments; instruments are looked up once at component
//     construction time, never per operation.
//  2. Everything is safe for concurrent use. The registry maps are
//     mutex-guarded; the instruments themselves are atomics.
//  3. No dependencies. Exposition is hand-rolled Prometheus text
//     format (expo.go) plus expvar; both are stdlib-only.
//
// A Registry is an instance, not a global: tests and benchmarks create
// as many isolated registries as they need. One registry is shared down
// a client stack (vfs → enclave → sgx → afs) so a single scrape or
// trace sees the whole data path.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is not
// usable; obtain counters from Registry.Counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. Hot-path safe: one atomic add.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down (worker widths, open
// connections). Obtain gauges from Registry.Gauge.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current gauge reading.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Registry owns a namespace of instruments and the tracer attached to
// them. Instrument lookup is get-or-create: two components asking for
// the same name share the instrument, which is how e.g. the enclave and
// the vfs layer above it meter into one data path.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter   // guarded by mu
	gauges   map[string]*Gauge     // guarded by mu
	hists    map[string]*Histogram // guarded by mu

	tracer Tracer
}

// NewRegistry returns an empty registry with tracing disabled.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on
// first use. Names follow Prometheus conventions: snake_case with a
// _total suffix for counters.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the latency histogram registered under name,
// creating it on first use. Names carry a _seconds suffix; buckets are
// the fixed power-of-two ladder described in histogram.go.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; ok {
		return h
	}
	h = newHistogram()
	r.hists[name] = h
	return h
}

// Tracer returns the registry's tracer. The tracer starts disabled;
// call Tracer().Enable() to begin collecting spans (see trace.go).
func (r *Registry) Tracer() *Tracer { return &r.tracer }

// CounterValue is a point-in-time reading of one named counter.
func (r *Registry) CounterValue(name string) int64 {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if !ok {
		return 0
	}
	return c.Value()
}

// GaugeValue is a point-in-time reading of one named gauge.
func (r *Registry) GaugeValue(name string) int64 {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if !ok {
		return 0
	}
	return g.Value()
}

// Snapshot returns the histogram snapshot for name, or a zero snapshot
// if the histogram was never registered.
func (r *Registry) Snapshot(name string) HistSnapshot {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if !ok {
		return HistSnapshot{}
	}
	return h.Snapshot()
}

// Timed records the duration since start into the histogram. It is the
// conventional way to close a latency measurement:
//
//	start := time.Now()
//	defer func() { h.Record(time.Since(start)) }()
//
// provided here as a helper for call sites that already hold both ends.
func Timed(h *Histogram, start time.Time) { h.Record(time.Since(start)) }

// counterNames returns the registered counter names, sorted, for
// deterministic exposition.
func (r *Registry) counterNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (r *Registry) gaugeNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.gauges))
	for n := range r.gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (r *Registry) histNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.hists))
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
