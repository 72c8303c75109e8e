package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer collects spans for single-operation diagnostics: enable it,
// run one op (a read, a write, a revoke), then Take() the span forest
// and print it with FormatTree. That is what `nexus trace` does.
//
// Tracing is disabled by default and the disabled path is free of
// locks and allocations: Begin returns a nil *Span after one atomic
// load, and all *Span methods are nil-safe no-ops. Instrumented code
// therefore never guards its span calls.
//
// Parenting is ambient: Begin parents the new span under the most
// recently begun, not-yet-ended span (falling back to a root). This
// matches how one operation flows down the stack — vfs.write begins,
// then sgx.ecall begins inside it, then afs.store inside that — and
// keeps the instrumented layers free of plumbed-through context; it is
// the only parenting there is. Ambient parenting means spans from concurrently traced
// operations can interleave; the tracer is a magnifying glass for one
// op at a time, not a production distributed tracer.
type Tracer struct {
	enabled atomic.Bool

	mu    sync.Mutex
	stack []*Span // guarded by mu
	roots []*Span // guarded by mu
}

// Span is one timed stage of an operation. Fields are written by the
// tracer under its lock and must be read only after Take has detached
// the span forest from the tracer.
type Span struct {
	Name     string
	Start    time.Time
	Dur      time.Duration
	Tags     []Tag
	Children []*Span

	tr *Tracer
}

// Tag is a key/value annotation on a span (retry counts, fault
// classifications, byte sizes).
type Tag struct {
	Key   string
	Value string
}

// Enabled reports whether spans are being collected.
func (t *Tracer) Enabled() bool { return t.enabled.Load() }

// Enable starts span collection. Spans begun before Enable are not
// retroactively collected.
func (t *Tracer) Enable() { t.enabled.Store(true) }

// Disable stops collection and drops any buffered spans.
func (t *Tracer) Disable() {
	t.enabled.Store(false)
	t.mu.Lock()
	t.stack = nil
	t.roots = nil
	t.mu.Unlock()
}

// Begin opens a span parented under the current ambient span. It
// returns nil when the tracer is disabled; nil spans are valid
// receivers for End and Tag, so callers never branch.
func (t *Tracer) Begin(name string) *Span {
	if !t.enabled.Load() {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &Span{Name: name, Start: time.Now(), tr: t}
	if n := len(t.stack); n > 0 {
		t.stack[n-1].Children = append(t.stack[n-1].Children, s)
	} else {
		t.roots = append(t.roots, s)
	}
	t.stack = append(t.stack, s)
	return s
}

// End closes the span, fixing its duration and popping it from the
// ambient stack. Safe on nil receivers.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	if s.Dur == 0 {
		s.Dur = time.Since(s.Start)
	}
	// Pop s (and anything begun after it that leaked without End —
	// defensive against panics in traced code).
	for i := len(s.tr.stack) - 1; i >= 0; i-- {
		if s.tr.stack[i] == s {
			s.tr.stack = s.tr.stack[:i]
			break
		}
	}
}

// SetTag annotates the span. Safe on nil receivers.
func (s *Span) SetTag(key, value string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.Tags = append(s.Tags, Tag{Key: key, Value: value})
	s.tr.mu.Unlock()
}

// SetTagInt annotates the span with an integer value.
func (s *Span) SetTagInt(key string, value int64) {
	if s == nil {
		return
	}
	s.SetTag(key, fmt.Sprintf("%d", value))
}

// Take detaches and returns the collected root spans, leaving the
// tracer empty but still enabled. The returned forest is immutable
// from the tracer's perspective and safe to walk without locks.
func (t *Tracer) Take() []*Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	roots := t.roots
	t.roots = nil
	t.stack = nil
	return roots
}

// FormatTree writes the span forest as an indented tree:
//
//	vfs.write 1.208ms
//	  sgx.ecall 1.102ms
//	    afs.store 0.911ms [retries=1]
//
// Durations are rounded to µs for readability; tags print in key
// order.
func FormatTree(w io.Writer, roots []*Span) {
	for _, s := range roots {
		formatSpan(w, s, 0)
	}
}

func formatSpan(w io.Writer, s *Span, depth int) {
	for i := 0; i < depth; i++ {
		fmt.Fprint(w, "  ")
	}
	fmt.Fprintf(w, "%s %v", s.Name, s.Dur.Round(time.Microsecond))
	if len(s.Tags) > 0 {
		tags := append([]Tag(nil), s.Tags...)
		sort.Slice(tags, func(i, j int) bool { return tags[i].Key < tags[j].Key })
		fmt.Fprint(w, " [")
		for i, tg := range tags {
			if i > 0 {
				fmt.Fprint(w, " ")
			}
			fmt.Fprintf(w, "%s=%s", tg.Key, tg.Value)
		}
		fmt.Fprint(w, "]")
	}
	fmt.Fprintln(w)
	for _, c := range s.Children {
		formatSpan(w, c, depth+1)
	}
}
