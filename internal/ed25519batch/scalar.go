package ed25519batch

import (
	"math/big"
	"math/bits"
)

// scalar is an integer mod L = 2^252 + 27742317777372353535851937790883648493,
// the prime order of the Ed25519 basepoint, as 4 little-endian 64-bit words.
// Values are kept fully reduced (< L).
type scalar [4]uint64

// lWords is L as little-endian words.
var lWords = scalar{0x5812631a5cf5d3ed, 0x14def9dea2f79cd6, 0, 0x1000000000000000}

// barrettMu is μ = floor(2^512 / L), 5 little-endian words, precomputed
// once with math/big. Runtime math/big would allocate on every reduction
// — dozens per batch — so it is confined to init.
var barrettMu [5]uint64

func init() {
	l := new(big.Int).SetBits([]big.Word{
		big.Word(lWords[0]), big.Word(lWords[1]), big.Word(lWords[2]), big.Word(lWords[3]),
	})
	mu := new(big.Int).Lsh(big.NewInt(1), 512)
	mu.Div(mu, l)
	for i, w := range mu.Bits() {
		barrettMu[i] = uint64(w)
	}
}

// mulAddCarry returns z + a*b + carry as (low word, carry-out word).
// No overflow: hi(a*b) <= 2^64-2, and the two possible carries-in sum
// to at most 2, so carry-out fits in a word.
func mulAddCarry(z, a, b, carry uint64) (uint64, uint64) {
	hi, lo := bits.Mul64(a, b)
	lo, c := bits.Add64(lo, carry, 0)
	hi += c
	lo, c = bits.Add64(lo, z, 0)
	return lo, hi + c
}

// geWords reports x >= y for equal-length little-endian words.
func geWords(x, y []uint64) bool {
	for i := len(x) - 1; i >= 0; i-- {
		if x[i] != y[i] {
			return x[i] > y[i]
		}
	}
	return true
}

// subWords sets z = x - y and returns the final borrow.
func subWords(z, x, y []uint64) uint64 {
	var borrow uint64
	for i := range z {
		z[i], borrow = bits.Sub64(x[i], y[i], borrow)
	}
	return borrow
}

// barrettReduce reduces a 512-bit value (8 little-endian words) mod L.
// HAC algorithm 14.42 with b = 2^64, k = 4 (L occupies 4 words).
func barrettReduce(out *scalar, x *[8]uint64) {
	// q1 = floor(x / b^(k-1)) — the top 5 words of x.
	q1 := x[3:8]
	// q2 = q1 * μ; only words at index >= 5 feed q3 = floor(q2 / b^(k+1)),
	// but the full schoolbook product is simpler and allocation-free.
	var q2 [10]uint64
	for i, qi := range q1 {
		var carry uint64
		for j, mj := range barrettMu {
			q2[i+j], carry = mulAddCarry(q2[i+j], qi, mj, carry)
		}
		q2[i+len(barrettMu)] = carry
	}
	q3 := q2[5:10]

	// r1 = x mod b^(k+1) — low 5 words of x.
	var r1 [5]uint64
	copy(r1[:], x[:5])
	// r2 = (q3 * L) mod b^(k+1): truncated product, high words dropped.
	var r2 [5]uint64
	for i := 0; i < 5; i++ {
		var carry uint64
		for j := 0; i+j < 5 && j < 4; j++ {
			r2[i+j], carry = mulAddCarry(r2[i+j], q3[i], lWords[j], carry)
		}
		if i+4 < 5 {
			r2[i+4] += carry
		}
	}
	// r = r1 - r2; a borrow means the estimate overshot by exactly b^(k+1),
	// and the wrapped two's-complement value is the correct remainder
	// candidate (HAC step 3: add b^(k+1)).
	var r [5]uint64
	subWords(r[:], r1[:], r2[:])
	// At most two corrective subtractions of L (HAC note 14.44).
	l5 := [5]uint64{lWords[0], lWords[1], lWords[2], lWords[3], 0}
	for geWords(r[:], l5[:]) {
		subWords(r[:], r[:], l5[:])
	}
	out[0], out[1], out[2], out[3] = r[0], r[1], r[2], r[3]
}

// setBytesWide sets s to the 64 little-endian bytes of b reduced mod L
// (the SHA-512 output reduction of RFC 8032).
func (s *scalar) setBytesWide(b *[64]byte) *scalar {
	var x [8]uint64
	for i := range x {
		for j := 0; j < 8; j++ {
			x[i] |= uint64(b[i*8+j]) << (8 * uint(j))
		}
	}
	barrettReduce(s, &x)
	return s
}

// setBytes16 sets s from up to 16 little-endian bytes (the random
// 128-bit batch blinders; always < L, no reduction needed).
func (s *scalar) setBytes16(b *[16]byte) *scalar {
	s[0], s[1], s[2], s[3] = 0, 0, 0, 0
	for j := 0; j < 8; j++ {
		s[0] |= uint64(b[j]) << (8 * uint(j))
		s[1] |= uint64(b[8+j]) << (8 * uint(j))
	}
	return s
}

// setCanonicalBytes sets s from 32 little-endian bytes and reports
// whether the value was canonical (< L). RFC 8032 requires rejecting
// signatures whose s is not, and crypto/ed25519 enforces the same, so
// VerifyOne and the batch equation do too.
func (s *scalar) setCanonicalBytes(b []byte) bool {
	if len(b) != 32 {
		return false
	}
	for i := range s {
		s[i] = 0
		for j := 0; j < 8; j++ {
			s[i] |= uint64(b[i*8+j]) << (8 * uint(j))
		}
	}
	return !geWords(s[:], lWords[:])
}

// mul sets s = a * b mod L.
func (s *scalar) mul(a, b *scalar) *scalar {
	var x [8]uint64
	for i, ai := range a {
		var carry uint64
		for j, bj := range b {
			x[i+j], carry = mulAddCarry(x[i+j], ai, bj, carry)
		}
		x[i+4] = carry
	}
	barrettReduce(s, &x)
	return s
}

// add sets s = a + b mod L.
func (s *scalar) add(a, b *scalar) *scalar {
	var carry uint64
	for i := range s {
		s[i], carry = bits.Add64(a[i], b[i], carry)
	}
	// a, b < L < 2^253 so the sum never overflows 2^256; one conditional
	// subtraction reduces it.
	if carry != 0 || geWords(s[:], lWords[:]) {
		subWords(s[:], s[:], lWords[:])
	}
	return s
}

// sub sets s = a - b mod L.
func (s *scalar) sub(a, b *scalar) *scalar {
	if subWords(s[:], a[:], b[:]) != 0 {
		var carry uint64
		for i := range s {
			s[i], carry = bits.Add64(s[i], lWords[i], carry)
		}
	}
	return s
}

// isZero reports whether s == 0.
func (s *scalar) isZero() bool {
	return s[0]|s[1]|s[2]|s[3] == 0
}
