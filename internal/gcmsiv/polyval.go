// Package gcmsiv implements the AES-GCM-SIV nonce-misuse-resistant AEAD
// from RFC 8452, including the POLYVAL universal hash function.
//
// NEXUS uses AES-GCM-SIV as its keywrapping scheme (DSN'19 §IV-A2): every
// metadata object is encrypted under a fresh random key, and that key is
// wrapped with the volume rootkey using GCM-SIV. SIV-mode wrapping is the
// right tool here because the wrapped payloads are high-entropy keys and
// the construction remains secure even if a nonce is ever repeated.
//
// The implementation is pure Go over crypto/aes, with a constant-time
// software POLYVAL, and passes the RFC 8452 test vectors. Each POLYVAL
// block is one 128×128-bit carry-less product, made of three 64×64 ones
// (Karatsuba), and a two-step Montgomery fold that multiplies by x^-128
// as it reduces. Each half of a 64×64 product is sixteen integer
// multiplies of operands whose set bits are four apart, so no carry
// reaches a bit that is kept (BearSSL's ghash_ctmul64); the high halves
// come from the bit-reversed operands. The field arithmetic uses no table
// lookups and no branch or memory index that depends on a key or data
// bit: only shifts, masks, XORs and integer multiplies, which take
// constant time on the CPUs Go targets for SGX (amd64).
// The tests and a fuzz target check it against a 128-step shift-and-add
// product (oracle_test.go).
package gcmsiv

import (
	"encoding/binary"
	"math/bits"
)

// fieldElement is an element of GF(2^128) in POLYVAL's fully little-endian
// representation: lo holds the coefficients of x^0..x^63 and hi holds
// x^64..x^127, with byte 0 bit 0 of the serialized form being the
// coefficient of x^0 (RFC 8452 §3).
type fieldElement struct {
	lo, hi uint64
}

func feFromBytes(b []byte) fieldElement {
	return fieldElement{
		lo: binary.LittleEndian.Uint64(b[0:8]),
		hi: binary.LittleEndian.Uint64(b[8:16]),
	}
}

func (e fieldElement) bytes() [16]byte {
	var out [16]byte
	binary.LittleEndian.PutUint64(out[0:8], e.lo)
	binary.LittleEndian.PutUint64(out[8:16], e.hi)
	return out
}

func (e fieldElement) xor(o fieldElement) fieldElement {
	return fieldElement{lo: e.lo ^ o.lo, hi: e.hi ^ o.hi}
}

// bmul64 returns the low 64 bits of the carry-less product of x and y.
// Each operand is split into four masks of every fourth bit; an integer
// product of two such masks has its carries land only on bits that the
// final masks drop, so sixteen multiplies give the carry-less product.
func bmul64(x, y uint64) uint64 {
	const (
		m0 = 0x1111111111111111
		m1 = 0x2222222222222222
		m2 = 0x4444444444444444
		m3 = 0x8888888888888888
	)
	x0, x1, x2, x3 := x&m0, x&m1, x&m2, x&m3
	y0, y1, y2, y3 := y&m0, y&m1, y&m2, y&m3
	z0 := (x0 * y0) ^ (x1 * y3) ^ (x2 * y2) ^ (x3 * y1)
	z1 := (x0 * y1) ^ (x1 * y0) ^ (x2 * y3) ^ (x3 * y2)
	z2 := (x0 * y2) ^ (x1 * y1) ^ (x2 * y0) ^ (x3 * y3)
	z3 := (x0 * y3) ^ (x1 * y2) ^ (x2 * y1) ^ (x3 * y0)
	return z0&m0 | z1&m1 | z2&m2 | z3&m3
}

// dot returns POLYVAL's product a*b*x^-128 mod f (RFC 8452 §3).
func dot(a, b fieldElement) fieldElement {
	// Karatsuba: three 64×64 products. The high half of each is the
	// reversed low half of the bit-reversed operands' product, shifted by
	// one.
	ar := fieldElement{lo: bits.Reverse64(a.lo), hi: bits.Reverse64(a.hi)}
	br := fieldElement{lo: bits.Reverse64(b.lo), hi: bits.Reverse64(b.hi)}
	z0 := bmul64(a.lo, b.lo)
	z2 := bmul64(a.hi, b.hi)
	z1 := bmul64(a.lo^a.hi, b.lo^b.hi) ^ z0 ^ z2
	z0h := bits.Reverse64(bmul64(ar.lo, br.lo)) >> 1
	z2h := bits.Reverse64(bmul64(ar.hi, br.hi)) >> 1
	z1h := bits.Reverse64(bmul64(ar.lo^ar.hi, br.lo^br.hi))>>1 ^ z0h ^ z2h

	// The 256-bit product is r3:r2:r1:r0.
	r0 := z0
	r1 := z0h ^ z1
	r2 := z2 ^ z1h
	r3 := z2h

	// Montgomery fold, one 64-bit word at a time: adding m*f, with m the
	// lowest word left, clears that word. f = x^128 + x^127 + x^126 +
	// x^121 + 1, so m*f adds m at the cleared word, m shifted by 121, 126
	// and 127 across the next two words and m itself two words up. After
	// two steps the product is divisible by x^128, and the top half is
	// a*b*x^-128 mod f, of degree below 128.
	r1 ^= r0<<63 ^ r0<<62 ^ r0<<57
	r2 ^= r0 ^ r0>>1 ^ r0>>2 ^ r0>>7
	r2 ^= r1<<63 ^ r1<<62 ^ r1<<57
	r3 ^= r1 ^ r1>>1 ^ r1>>2 ^ r1>>7
	return fieldElement{lo: r2, hi: r3}
}

// polyval computes POLYVAL(h, blocks) per RFC 8452 §3:
//
//	S_0 = 0; S_j = dot(S_{j-1} XOR X_j, H) where dot(a,b) = a*b*x^-128.
//
// Each block costs one dot, whose fold applies the x^-128.
type polyval struct {
	h   fieldElement
	s   fieldElement
	buf [16]byte
	n   int // buffered bytes in buf
}

func newPolyval(h []byte) *polyval {
	if len(h) != 16 {
		panic("gcmsiv: POLYVAL key must be 16 bytes")
	}
	return &polyval{h: feFromBytes(h)}
}

// update absorbs p, which may be of any length; partial blocks are
// buffered until complete. Callers zero-pad explicitly where RFC 8452
// requires it (see padBlocks).
func (p *polyval) update(data []byte) {
	if p.n > 0 {
		take := copy(p.buf[p.n:], data)
		p.n += take
		data = data[take:]
		if p.n == 16 {
			p.absorb(p.buf[:])
			p.n = 0
		}
	}
	for len(data) >= 16 {
		p.absorb(data[:16])
		data = data[16:]
	}
	if len(data) > 0 {
		p.n = copy(p.buf[:], data)
	}
}

// updatePadded absorbs data and then zero bytes up to the next 16-byte
// boundary, as required for the AAD and plaintext sections of the
// GCM-SIV tag computation.
func (p *polyval) updatePadded(data []byte) {
	p.update(data)
	if p.n > 0 {
		for i := p.n; i < 16; i++ {
			p.buf[i] = 0
		}
		p.absorb(p.buf[:])
		p.n = 0
	}
}

func (p *polyval) absorb(block []byte) {
	p.s = dot(p.s.xor(feFromBytes(block)), p.h)
}

// sum returns the current POLYVAL state; it must only be called on a
// block boundary (no buffered partial block).
func (p *polyval) sum() [16]byte {
	if p.n != 0 {
		panic("gcmsiv: POLYVAL sum on partial block")
	}
	return p.s.bytes()
}
