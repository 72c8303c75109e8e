package parallel

import (
	"bytes"
	"sync"
	"testing"
)

func TestArenaClassFor(t *testing.T) {
	cases := []struct {
		n, class int
	}{
		{0, 0},
		{1, 0},
		{4096, 0},
		{4097, 1},
		{8192, 1},
		{1 << 20, 8},
		{(1 << 20) + 1, 9},
		{128 << 20, numClasses - 1},
		{(128 << 20) + 1, -1},
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.class {
			t.Fatalf("classFor(%d) = %d, want %d", c.n, got, c.class)
		}
	}
}

func TestArenaOversizedBypassesPool(t *testing.T) {
	a := NewArena()
	b := a.Get((128 << 20) + 1)
	if b.class != -1 {
		t.Fatalf("oversized lease got class %d", b.class)
	}
	b.Release() // must not panic, must not pool
	if hits, misses := a.Stats(); hits != 0 || misses != 1 {
		t.Fatalf("stats = %d/%d, want 0 hits / 1 miss", hits, misses)
	}
}

func TestArenaDoubleReleasePanics(t *testing.T) {
	a := NewArena()
	b := a.Get(64)
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	b.Release()
}

// TestArenaSensitiveLeaseLeavesNoPlaintext is the leak test from the
// pool-lifecycle checklist: poison a sensitive buffer with recognizable
// plaintext, release it, and assert the next leaseholder of the same
// class cannot read a single poisoned byte — to full capacity, not just
// the requested length.
func TestArenaSensitiveLeaseLeavesNoPlaintext(t *testing.T) {
	a := NewArena()
	poison := []byte("TOP-SECRET-CHUNK-PLAINTEXT-")

	b := a.GetSensitive(1 << 14)
	for i := 0; i < len(b.B); i++ {
		b.B[i] = poison[i%len(poison)]
	}
	// Shrink what the "caller" nominally holds; release must still wipe
	// the bytes beyond len, because Seal-style call sites slice down.
	b.B = b.B[:100]
	b.Release()

	n := a.Get(1 << 14)
	if bytes.Contains(n.B[:cap(n.B)], poison) {
		t.Fatal("released sensitive buffer still readable through next lease")
	}
	for i, c := range n.B {
		if c != 0 {
			t.Fatalf("byte %d = %q after sensitive release, want 0", i, c)
		}
	}
	n.Release()
}

// TestArenaConcurrentHammer drives concurrent get/release traffic across
// mixed classes with the chaos sizes overlapping, for the -race leg of
// the pool-lifecycle checklist. Every goroutine writes a unique pattern
// and verifies it before release, so a double-lease of live memory
// shows up as data corruption even without the race detector.
func TestArenaConcurrentHammer(t *testing.T) {
	a := NewArena()
	sizes := []int{100, 4096, 5000, 1 << 16, 1 << 20}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pat := byte(g + 1)
			for i := 0; i < 200; i++ {
				b := a.Get(sizes[(g+i)%len(sizes)])
				if (g+i)%3 == 0 {
					b.sensitive = true
				}
				for j := range b.B {
					b.B[j] = pat
				}
				for j := range b.B {
					if b.B[j] != pat {
						t.Errorf("goroutine %d iter %d: byte %d corrupted", g, i, j)
						break
					}
				}
				b.Release()
			}
		}(g)
	}
	wg.Wait()
	hits, misses := a.Stats()
	if hits+misses != 8*200 {
		t.Fatalf("hits+misses = %d, want %d", hits+misses, 8*200)
	}
}
