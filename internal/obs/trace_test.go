package obs

import (
	"strings"
	"testing"
	"time"
)

func TestDisabledTracerIsNilSafe(t *testing.T) {
	var tr Tracer
	s := tr.Begin("op")
	if s != nil {
		t.Fatal("Begin on disabled tracer returned a span")
	}
	// All span methods must be no-ops on nil.
	s.SetTag("k", "v")
	s.SetTagInt("n", 1)
	s.End()
	if roots := tr.Take(); len(roots) != 0 {
		t.Errorf("disabled tracer collected %d roots", len(roots))
	}
}

func TestAmbientNesting(t *testing.T) {
	var tr Tracer
	tr.Enable()
	a := tr.Begin("a")
	b := tr.Begin("b")
	b.End()
	c := tr.Begin("c")
	c.End()
	a.End()
	d := tr.Begin("d")
	d.End()

	roots := tr.Take()
	if len(roots) != 2 {
		t.Fatalf("got %d roots, want 2", len(roots))
	}
	if roots[0].Name != "a" || roots[1].Name != "d" {
		t.Fatalf("roots = %s, %s", roots[0].Name, roots[1].Name)
	}
	kids := roots[0].Children
	if len(kids) != 2 || kids[0].Name != "b" || kids[1].Name != "c" {
		t.Fatalf("children of a = %v", spanNames(kids))
	}
	for _, s := range []*Span{a, b, c, d} {
		if s.Dur <= 0 {
			t.Errorf("span %s has duration %v", s.Name, s.Dur)
		}
	}
}

func TestEndPopsLeakedDescendants(t *testing.T) {
	var tr Tracer
	tr.Enable()
	a := tr.Begin("a")
	tr.Begin("leaked") // never ended (simulates a panic in traced code)
	a.End()
	// The stack must be clean: the next span is a new root, not a child
	// of the leaked span.
	b := tr.Begin("b")
	b.End()
	roots := tr.Take()
	if len(roots) != 2 || roots[1].Name != "b" {
		t.Fatalf("roots = %v", spanNames(roots))
	}
}

func TestTakeDetachesAndTracerKeepsCollecting(t *testing.T) {
	var tr Tracer
	tr.Enable()
	tr.Begin("one").End()
	first := tr.Take()
	if len(first) != 1 {
		t.Fatalf("first take = %d roots", len(first))
	}
	if again := tr.Take(); len(again) != 0 {
		t.Fatalf("second take = %d roots, want 0", len(again))
	}
	tr.Begin("two").End()
	if roots := tr.Take(); len(roots) != 1 || roots[0].Name != "two" {
		t.Fatalf("after re-collection roots = %v", spanNames(roots))
	}
}

func TestDisableDropsBufferedSpans(t *testing.T) {
	var tr Tracer
	tr.Enable()
	tr.Begin("kept-open")
	tr.Disable()
	if roots := tr.Take(); len(roots) != 0 {
		t.Errorf("Disable left %d roots", len(roots))
	}
}

func TestFormatTree(t *testing.T) {
	child := &Span{Name: "sgx.ecall", Dur: 1100 * time.Microsecond}
	root := &Span{
		Name:     "vfs.write",
		Dur:      2 * time.Millisecond,
		Tags:     []Tag{{Key: "retries", Value: "1"}, {Key: "bytes", Value: "4096"}},
		Children: []*Span{child},
	}
	var sb strings.Builder
	FormatTree(&sb, []*Span{root})
	want := "vfs.write 2ms [bytes=4096 retries=1]\n  sgx.ecall 1.1ms\n"
	if sb.String() != want {
		t.Errorf("FormatTree = %q, want %q", sb.String(), want)
	}
}

func spanNames(spans []*Span) []string {
	names := make([]string, len(spans))
	for i, s := range spans {
		names[i] = s.Name
	}
	return names
}
