package gcmsiv

// The bit-serial field product below is the reference the fast one (dot)
// is tested against: 128 shift-and-add steps that follow the field's
// definition with no cleverness to get wrong.

// Reduction constants for the POLYVAL field, whose modulus is
// f = x^128 + x^127 + x^126 + x^121 + 1.
const (
	// polyRedHi is f mod x^128 restricted to the high word: bits 127, 126
	// and 121 (the x^0 term is folded in separately as lo ^= 1).
	polyRedHi = 0xc200000000000000
)

// invX128 is x^-128 mod f, which RFC 8452 §3 notes equals
// x^127 + x^124 + x^121 + x^114 + 1. Multiplying a plain field product by
// this constant turns it into the Montgomery-style "dot" product POLYVAL
// is defined over.
var invX128 = fieldElement{
	lo: 1,
	hi: 1<<63 | 1<<60 | 1<<57 | 1<<50,
}

// mulX multiplies e by x and reduces modulo f.
func (e fieldElement) mulX() fieldElement {
	carry := e.hi >> 63
	hi := e.hi<<1 | e.lo>>63
	lo := e.lo << 1
	// Branchless reduction: if the x^128 coefficient was set, fold the
	// modulus tail back in.
	mask := -carry // all-ones when carry == 1
	hi ^= mask & polyRedHi
	lo ^= mask & 1
	return fieldElement{lo: lo, hi: hi}
}

// mul returns the plain (non-Montgomery) product a*b mod f using a
// constant-time shift-and-add over the 128 bits of a. It is the slow
// reference dot is checked against: dot(a, b) = a.mul(b).mul(invX128).
func (a fieldElement) mul(b fieldElement) fieldElement {
	var r fieldElement
	v := b
	for i := 0; i < 64; i++ {
		mask := -((a.lo >> uint(i)) & 1)
		r.lo ^= mask & v.lo
		r.hi ^= mask & v.hi
		v = v.mulX()
	}
	for i := 0; i < 64; i++ {
		mask := -((a.hi >> uint(i)) & 1)
		r.lo ^= mask & v.lo
		r.hi ^= mask & v.hi
		v = v.mulX()
	}
	return r
}
