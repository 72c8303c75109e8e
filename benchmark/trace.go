package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// depth orders the layers of the stack from the user's call downwards.
// A span's parent is the innermost enclosing span of no greater depth.
type depth uint8

const (
	depthVFS   depth = iota // calls into nexus.FS / File / Volume / Client
	depthOcall              // store.* and freshness.*: the enclave's ocall surface
	depthAFS                // afs.*: the AFS client's public calls
	depthLeaf               // netsim.write and backend.*
)

// span is one timed call across a layer boundary.
type span struct {
	name       string
	depth      depth
	start, end int64 // ns since the tracer's epoch
	op         int32 // user operation in flight when the span was taken
	parent     int32 // index into the sorted span list; -1 = none
}

// tracer keeps the benchmark's own spans in memory. It is off in the
// untraced run: start then returns 0 and the wrappers take no clock
// readings at all. Spans are only taken while a user operation is in
// flight, so set-up and verification traffic never reach the trace.
type tracer struct {
	on    bool
	epoch time.Time
	op    atomic.Int32 // id of the user op in flight; 0 = none
	ops   int32        // ids handed out so far (load-generator goroutine only)

	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) + 1 }

// start returns the span's opening timestamp, or 0 when nothing is to
// be recorded (tracing off, or no user op in flight).
func (t *tracer) start() int64 {
	if !t.on || t.op.Load() == 0 {
		return 0
	}
	return t.now()
}

// finish closes a span opened by start.
func (t *tracer) finish(d depth, name string, t0 int64) {
	if t0 == 0 {
		return
	}
	end := t.now()
	s := span{name: name, depth: d, start: t0, end: end, op: t.op.Load(), parent: -1}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// beginOp marks a user operation in flight; endOp clears it.
func (t *tracer) beginOp() {
	t.ops++
	t.op.Store(t.ops)
}

func (t *tracer) endOp() { t.op.Store(0) }

// layerOf is the module a span belongs to: the name up to the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// breakdown is what the traced run yields: per-name busy time, per-layer
// self time, and the time of spans nothing encloses.
type breakdown struct {
	busy   map[string]time.Duration // by span name
	self   map[string]time.Duration // by layer
	orphan time.Duration
	spans  []span // sorted, parents resolved
}

func (b *breakdown) layerBusy(layer string) time.Duration {
	var d time.Duration
	for name, v := range b.busy {
		if layerOf(name) == layer {
			d += v
		}
	}
	return d
}

// analyze resolves parents and self times. One user op is in flight at
// a time, so on the time axis the spans of one op nest: a span's parent
// is the innermost span, of its own layer or one above, that is open
// when it starts. Server-side spans attach the same way, by
// containment: while the client's Write is still returning (its
// goroutine waits for a processor) the server already handles the
// request, and that time belongs to the server-side spans. A span can
// also outlast its parent by a scheduling delay, so it counts towards
// self times only up to its parent's end; the overhang is reported with
// the orphans. Self time is a span's duration minus the union of its
// children's intervals, which makes the layers' self times a partition
// of the time inside user operations.
func (t *tracer) analyze() *breakdown {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.start != b.start {
			return a.start < b.start
		}
		if a.depth != b.depth {
			return a.depth < b.depth
		}
		return a.end > b.end
	})
	out := &breakdown{
		busy:  make(map[string]time.Duration),
		self:  make(map[string]time.Duration),
		spans: spans,
	}
	until := make([]int64, len(spans))    // end, clipped to the parent's
	covered := make([]int64, len(spans))  // child-covered ns per span
	coverEnd := make([]int64, len(spans)) // right edge of that union
	var stack []int32
	for i := range spans {
		s := &spans[i]
		for len(stack) > 0 {
			top := stack[len(stack)-1]
			if spans[top].depth <= s.depth && until[top] > s.start {
				break
			}
			stack = stack[:len(stack)-1]
		}
		until[i] = s.end
		out.busy[s.name] += time.Duration(s.end - s.start)
		if len(stack) == 0 {
			if s.depth != depthVFS {
				out.orphan += time.Duration(s.end - s.start)
				continue
			}
		} else {
			p := stack[len(stack)-1]
			s.parent = p
			if until[p] < until[i] {
				out.orphan += time.Duration(until[i] - until[p])
				until[i] = until[p]
			}
			from := s.start
			if coverEnd[p] > from {
				from = coverEnd[p]
			}
			if until[i] > from {
				covered[p] += until[i] - from
				coverEnd[p] = until[i]
			}
		}
		stack = append(stack, int32(i))
	}
	for i := range spans {
		s := &spans[i]
		if s.parent < 0 && s.depth != depthVFS {
			continue
		}
		out.self[layerOf(s.name)] += time.Duration(until[i] - s.start - covered[i])
	}
	return out
}

// writeSpans writes the resolved spans as JSON lines: name, start and
// end in ns since the run began, parent (line index, -1 = none) and the
// user op id shared by every span of one operation.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating span file: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, s := range spans {
		if _, err := fmt.Fprintf(w, "{\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"op\":%d}\n",
			s.name, s.start, s.end, s.parent, s.op); err != nil {
			_ = f.Close() // the write error is the one to report
			return fmt.Errorf("writing span file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return fmt.Errorf("writing span file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing span file: %w", err)
	}
	return nil
}
