package obs

import (
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if got := r.CounterValue("x_total"); got != 5 {
		t.Errorf("CounterValue = %d, want 5", got)
	}
}

func TestGaugeBasics(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Errorf("gauge = %d, want 4", got)
	}
	if got := r.GaugeValue("depth"); got != 4 {
		t.Errorf("GaugeValue = %d, want 4", got)
	}
}

func TestGetOrCreateReturnsSameInstrument(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Error("Counter returned distinct instances for one name")
	}
	if r.Gauge("b") != r.Gauge("b") {
		t.Error("Gauge returned distinct instances for one name")
	}
	if r.Histogram("c") != r.Histogram("c") {
		t.Error("Histogram returned distinct instances for one name")
	}
}

func TestUnknownInstrumentReadsAreZero(t *testing.T) {
	r := NewRegistry()
	if got := r.CounterValue("nope"); got != 0 {
		t.Errorf("CounterValue(unknown) = %d", got)
	}
	if got := r.GaugeValue("nope"); got != 0 {
		t.Errorf("GaugeValue(unknown) = %d", got)
	}
	if s := r.Snapshot("nope"); s.Count != 0 {
		t.Errorf("Snapshot(unknown) = %+v", s)
	}
	// Reading must not implicitly register the instrument.
	if names := r.counterNames(); len(names) != 0 {
		t.Errorf("read registered a counter: %v", names)
	}
}

func TestTimed(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("op_seconds")
	Timed(h, time.Now().Add(-time.Millisecond))
	s := h.Snapshot()
	if s.Count != 1 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.MinNs < int64(time.Millisecond) {
		t.Errorf("recorded %dns, want >= 1ms", s.MinNs)
	}
}

func TestNamesSorted(t *testing.T) {
	r := NewRegistry()
	for _, n := range []string{"zeta", "alpha", "mid"} {
		r.Counter(n)
		r.Gauge(n + "_g")
		r.Histogram(n + "_h")
	}
	for _, names := range [][]string{r.counterNames(), r.gaugeNames(), r.histNames()} {
		for i := 1; i < len(names); i++ {
			if names[i-1] > names[i] {
				t.Errorf("names not sorted: %v", names)
			}
		}
	}
}
