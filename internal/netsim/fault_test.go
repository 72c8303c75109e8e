package netsim

import (
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	c := NewRand(43)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collided on %d/100 draws", same)
	}
	buf1, buf2 := make([]byte, 37), make([]byte, 37)
	r1, r2 := NewRand(7), NewRand(7)
	_, _ = r1.Read(buf1)
	_, _ = r2.Read(buf2)
	if string(buf1) != string(buf2) {
		t.Fatal("Read not deterministic")
	}
}

// TestConcurrentRandDraws shares one generator among four goroutines, as
// the fault injector and the AFS client's retry jitter do: the race
// detector checks that the state is stepped only under its lock, and the
// draws, taken together, are the seed's stream with none lost or repeated.
func TestConcurrentRandDraws(t *testing.T) {
	const goroutines, draws = 4, 500
	r := NewRand(42)
	got := make([][]uint64, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < draws; i++ {
				got[g] = append(got[g], r.Uint64())
			}
		}()
	}
	wg.Wait()
	want := make(map[uint64]bool, goroutines*draws)
	serial := NewRand(42)
	for i := 0; i < goroutines*draws; i++ {
		want[serial.Uint64()] = true
	}
	for _, vs := range got {
		for _, v := range vs {
			if !want[v] {
				t.Fatalf("draw %#x is not in the seed's first %d values, or was drawn twice", v, goroutines*draws)
			}
			delete(want, v)
		}
	}
}

func TestScheduleReproducibleByteForByte(t *testing.T) {
	p := FaultProfile{
		Seed:               1234,
		DialRefuse:         0.2,
		Cut:                0.05,
		Truncate:           0.05,
		Spike:              0.1,
		RestartAfterFaults: []int64{25},
	}
	s1 := p.Schedule(200, 1000)
	s2 := p.Schedule(200, 1000)
	if s1 != s2 {
		t.Fatal("same profile rendered two different schedules")
	}
	q := p
	q.Seed = 1235
	if p.Schedule(200, 1000) == q.Schedule(200, 1000) {
		t.Fatal("different seeds rendered the same schedule")
	}
	// Slot decisions are pure: slot 17's fault must not depend on
	// whether earlier slots were evaluated.
	if p.WriteFault(17) != p.WriteFault(17) {
		t.Fatal("WriteFault not pure")
	}
}

func TestProfileProbabilityBuckets(t *testing.T) {
	p := FaultProfile{Seed: 9, Cut: 0.1, Truncate: 0.1, Spike: 0.1, SpikeMax: time.Millisecond}
	counts := map[FaultKind]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		ev := p.WriteFault(uint64(i))
		counts[ev.Kind]++
		switch ev.Kind {
		case FaultTruncateWrite:
			if ev.Frac < 0.05 || ev.Frac > 0.95 {
				t.Fatalf("truncate fraction %v out of range", ev.Frac)
			}
		case FaultLatencySpike:
			if ev.Delay < 0 || ev.Delay > time.Millisecond {
				t.Fatalf("spike delay %v out of range", ev.Delay)
			}
		}
	}
	for _, kind := range []FaultKind{FaultCutConn, FaultTruncateWrite, FaultLatencySpike} {
		got := float64(counts[kind]) / n
		if got < 0.07 || got > 0.13 {
			t.Fatalf("%s rate = %.3f, want ~0.10", kind, got)
		}
	}
}

// echoServer accepts connections and echoes bytes until closed.
func echoServer(t *testing.T) (addr string, stop func()) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() { _, _ = io.Copy(c, c); _ = c.Close() }()
		}
	}()
	return l.Addr().String(), func() { _ = l.Close() }
}

func TestInjectorDialRefusal(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	in := NewInjector(FaultProfile{Seed: 5, DialRefuse: 1})
	dial := in.Dialer(Loopback)
	if _, err := dial(addr); !errors.Is(err, ErrInjected) {
		t.Fatalf("dial under DialRefuse=1: %v, want ErrInjected", err)
	}
	if in.Faults() != 1 {
		t.Fatalf("Faults = %d, want 1", in.Faults())
	}
	in.Disable()
	c, err := dial(addr)
	if err != nil {
		t.Fatalf("dial after Disable: %v", err)
	}
	_ = c.Close()
}

func TestInjectorTruncatesAndCuts(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	// Truncate every write: the peer must see a strict prefix.
	in := NewInjector(FaultProfile{Seed: 6, Truncate: 1})
	c, err := in.Dialer(Loopback)(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payload := make([]byte, 1000)
	for i := range payload {
		payload[i] = byte(i)
	}
	n, err := c.Write(payload)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("truncated write err = %v, want ErrInjected", err)
	}
	if n <= 0 || n >= len(payload) {
		t.Fatalf("truncated write delivered %d bytes, want a strict prefix", n)
	}
	// The injected close severs the read side too.
	_ = c.SetReadDeadline(time.Now().Add(time.Second))
	buf := make([]byte, len(payload))
	total := 0
	for total < n {
		m, err := c.Read(buf[total:])
		total += m
		if err != nil {
			break
		}
	}
	if total > n {
		t.Fatalf("peer echoed %d bytes, wrote only %d", total, n)
	}

	in2 := NewInjector(FaultProfile{Seed: 6, Cut: 1})
	c2, err := in2.Dialer(Loopback)(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if n, err := c2.Write(payload); n != 0 || !errors.Is(err, ErrInjected) {
		t.Fatalf("cut write = (%d, %v), want (0, ErrInjected)", n, err)
	}
}

func TestInjectorScriptedRestartPoints(t *testing.T) {
	in := NewInjector(FaultProfile{Seed: 8, Cut: 1, RestartAfterFaults: []int64{2, 4}})
	addr, stop := echoServer(t)
	defer stop()
	dial := in.Dialer(Loopback)
	for i := 0; i < 5; i++ {
		c, err := dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = c.Write([]byte("x")) // each write is an injected cut
		_ = c.Close()
	}
	for i := 0; i < 2; i++ {
		select {
		case <-in.Restarts():
		case <-time.After(time.Second):
			t.Fatalf("restart signal %d never arrived (faults=%d)", i, in.Faults())
		}
	}
	select {
	case <-in.Restarts():
		t.Fatal("more restart signals than scripted points")
	default:
	}
}
