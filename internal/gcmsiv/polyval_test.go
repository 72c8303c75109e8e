package gcmsiv

import (
	"math/bits"
	"math/rand/v2"
	"testing"
)

// oracleDot is POLYVAL's product by the bit-serial reference:
// a*b*x^-128 mod f.
func oracleDot(a, b fieldElement) fieldElement { return a.mul(b).mul(invX128) }

// clmul64 is the schoolbook carry-less product of x and y, low and high
// words.
func clmul64(x, y uint64) (lo, hi uint64) {
	for i := 0; i < 64; i++ {
		if y>>i&1 == 1 {
			lo ^= x << i
			if i > 0 {
				hi ^= x >> (64 - i)
			}
		}
	}
	return lo, hi
}

// edgeElements are the operands a seeded draw rarely hits: zero, one, the
// top bit of each word, all ones, and every word pattern bmul64 masks by.
func edgeElements() []fieldElement {
	out := []fieldElement{
		{}, {lo: 1}, {hi: 1}, {lo: 1 << 63}, {hi: 1 << 63},
		{lo: ^uint64(0)}, {hi: ^uint64(0)}, {lo: ^uint64(0), hi: ^uint64(0)},
		invX128,
	}
	for _, m := range []uint64{0x1111111111111111, 0x2222222222222222, 0x4444444444444444, 0x8888888888888888} {
		out = append(out, fieldElement{lo: m}, fieldElement{hi: m}, fieldElement{lo: m, hi: ^m})
	}
	return out
}

// TestBmul64MatchesSchoolbook checks the masked-multiply carry-less product
// against the bit-by-bit one, low word directly and high word through the
// bit reversal dot uses.
func TestBmul64MatchesSchoolbook(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 40))
	for i := 0; i < 20000; i++ {
		x, y := r.Uint64(), r.Uint64()
		if i < 64 {
			x, y = ^uint64(0), uint64(1)<<i
		}
		lo, hi := clmul64(x, y)
		if got := bmul64(x, y); got != lo {
			t.Fatalf("bmul64(%#x, %#x) = %#x, want %#x", x, y, got, lo)
		}
		if got := bits.Reverse64(bmul64(bits.Reverse64(x), bits.Reverse64(y))) >> 1; got != hi {
			t.Fatalf("high word of %#x * %#x = %#x, want %#x", x, y, got, hi)
		}
	}
}

// TestDotMatchesOracle is the seeded differential test of the fast POLYVAL
// product against the bit-serial one: every pair of edge operands, then
// seeded random pairs, then chained products as POLYVAL makes them.
func TestDotMatchesOracle(t *testing.T) {
	edges := edgeElements()
	for _, a := range edges {
		for _, b := range edges {
			if got, want := dot(a, b), oracleDot(a, b); got != want {
				t.Fatalf("dot(%+v, %+v) = %+v, want %+v", a, b, got, want)
			}
		}
	}
	r := rand.New(rand.NewPCG(8452, 40))
	for i := 0; i < 20000; i++ {
		a := fieldElement{lo: r.Uint64(), hi: r.Uint64()}
		b := fieldElement{lo: r.Uint64(), hi: r.Uint64()}
		if got, want := dot(a, b), oracleDot(a, b); got != want {
			t.Fatalf("dot(%+v, %+v) = %+v, want %+v", a, b, got, want)
		}
	}
	h := fieldElement{lo: r.Uint64(), hi: r.Uint64()}
	fast, slow := fieldElement{}, fieldElement{}
	for i := 0; i < 1000; i++ {
		x := fieldElement{lo: r.Uint64(), hi: r.Uint64()}
		fast, slow = dot(fast.xor(x), h), oracleDot(slow.xor(x), h)
		if fast != slow {
			t.Fatalf("block %d: chained dot = %+v, oracle %+v", i, fast, slow)
		}
	}
}

// FuzzPolyvalDot checks the fast product against the bit-serial oracle on
// fuzzer-chosen operands (short inputs are zero-padded to 16 bytes).
func FuzzPolyvalDot(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{1}, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte("0123456789abcdef"), []byte("fedcba9876543210"))
	f.Fuzz(func(t *testing.T, x, y []byte) {
		var xb, yb [16]byte
		copy(xb[:], x)
		copy(yb[:], y)
		a, b := feFromBytes(xb[:]), feFromBytes(yb[:])
		if got, want := dot(a, b), oracleDot(a, b); got != want {
			t.Fatalf("dot(%x, %x) = %+v, want %+v", xb, yb, got, want)
		}
	})
}
