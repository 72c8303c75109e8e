package main

// rng is the benchmark's own SplitMix64 generator. The benchmark owns
// its PRNG (no math/rand, no internal/netsim.Rand) so every input is a
// pure function of -seed and nothing under test shares generator state
// with the load.
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng { return &rng{state: seed} }

func (r *rng) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// fork derives an independent stream, so adding draws to one generator
// stage never shifts the inputs of another.
func (r *rng) fork(label uint64) *rng {
	return newRNG(r.next() ^ (label * 0xD6E8FEB86659FD93))
}

// intn returns a value in [0, n); n must be positive.
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// fill overwrites b with generator output.
func (r *rng) fill(b []byte) {
	for len(b) >= 8 {
		v := r.next()
		b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		b[4], b[5], b[6], b[7] = byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56)
		b = b[8:]
	}
	if len(b) > 0 {
		v := r.next()
		for i := range b {
			b[i] = byte(v >> (8 * uint(i)))
		}
	}
}
