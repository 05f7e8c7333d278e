// Package ed25519batch is the Ed25519 verification core of the attested
// path: batch verification, and a single-signature verifier with
// crypto/ed25519's exact verdicts, over a compact edwards25519
// arithmetic core.
//
// The Go standard library keeps its edwards25519 implementation internal
// and exposes only one-at-a-time ed25519.Verify, which costs one full
// double-scalar multiplication per signature. Batch verification checks n
// signatures under u distinct public keys with one multiscalar
// multiplication of 2+2u+n terms, all below 2^128, whose 128 point
// doublings are shared across every term — the amortization ScaRR
// identifies as the only way attestation verification scales. Terms that
// share a public key are merged, and attestation windows are signed by a
// few switch keys, so u is small compared to n.
//
// The batch check is the cofactored equation (RFC 8032 §3.4, "batch"
// remark; Chalkias et al., "Taming the many EdDSAs"):
//
//	[8]( [-Σ z_i·s_i mod L]B + Σ [z_i]R_i + Σ [z_i·h_i mod L]A_i ) == 0
//
// with independent 128-bit random blinders z_i, h_i = SHA-512(R‖A‖M)
// mod L. A batch that fails says only "at least one signature is bad";
// callers attribute failures by falling back to per-item VerifyOne (see
// evidence.BatchVerifier).
//
// VerifyOne and Verify check one signature with the standard library's
// cofactorless rules, reusing the batch equation's cached key tables and
// 128-bit split: [s]B − [k]A is 4 terms under 128 doublings. Their
// verdicts equal crypto/ed25519.Verify's on every input, which
// FuzzVerifyOneVsStdlib checks against the standard library as the
// oracle.
//
// Field multiplication and squaring run on amd64 in assembly kernels
// copied from Go's own edwards25519 field package (fe_amd64.s); the
// portable Go bodies (feMulGeneric, feSquareGeneric) serve every other
// architecture and builds with the purego tag, and return the same
// limbs.
//
// All arithmetic here is variable-time: batch verification handles only
// public values (public keys, signatures, messages), never secrets.
package ed25519batch

import "math/bits"

// fe is an element of GF(2^255-19), in radix-2^51 representation: the
// value is l0 + l1·2^51 + l2·2^102 + l3·2^153 + l4·2^204. Loose bounds:
// operations accept limbs < 2^52 and return limbs < 2^52 after one carry
// pass; toBytes performs the full canonical reduction.
type fe struct {
	l0, l1, l2, l3, l4 uint64
}

const mask51 = (1 << 51) - 1

var (
	feZero = fe{}
	feOne  = fe{l0: 1}
)

// add sets v = a + b.
func (v *fe) add(a, b *fe) *fe {
	return v.setCarried(a.l0+b.l0, a.l1+b.l1, a.l2+b.l2, a.l3+b.l3, a.l4+b.l4)
}

// sub sets v = a - b. 2p is added first so limbs never underflow.
func (v *fe) sub(a, b *fe) *fe {
	// 2p in radix 2^51: low limb 2^52-38, others 2^52-2.
	return v.setCarried(
		a.l0+0xFFFFFFFFFFFDA-b.l0,
		a.l1+0xFFFFFFFFFFFFE-b.l1,
		a.l2+0xFFFFFFFFFFFFE-b.l2,
		a.l3+0xFFFFFFFFFFFFE-b.l3,
		a.l4+0xFFFFFFFFFFFFE-b.l4)
}

// neg sets v = -a.
func (v *fe) neg(a *fe) *fe { return v.sub(&feZero, a) }

// carry propagates limb overflow once; see setCarried.
func (v *fe) carry() *fe { return v.setCarried(v.l0, v.l1, v.l2, v.l3, v.l4) }

// setCarried sets v to the limbs l0..l4 after one carry pass, folding the
// top carry back via 2^255 ≡ 19. Input limbs may be up to 2^64; output
// limbs are < 2^51 + 2^18. Taking the limbs as values lets the callers
// keep them in registers and store v once.
func (v *fe) setCarried(l0, l1, l2, l3, l4 uint64) *fe {
	v.l0 = l0&mask51 + (l4>>51)*19
	v.l1 = l1&mask51 + l0>>51
	v.l2 = l2&mask51 + l1>>51
	v.l3 = l3&mask51 + l2>>51
	v.l4 = l4&mask51 + l3>>51
	return v
}

// uint128 is a 128-bit accumulator for the schoolbook product columns.
type uint128 struct{ lo, hi uint64 }

// mul64 returns a·b.
func mul64(a, b uint64) uint128 {
	hi, lo := bits.Mul64(a, b)
	return uint128{lo, hi}
}

// addMul64 returns v + a·b.
func addMul64(v uint128, a, b uint64) uint128 {
	hi, lo := bits.Mul64(a, b)
	lo, c := bits.Add64(lo, v.lo, 0)
	hi, _ = bits.Add64(hi, v.hi, c)
	return uint128{lo, hi}
}

// shr51 returns v >> 51 (the carry out of a 51-bit limb); column sums
// stay below 2^115, so the result fits in 64 bits.
func shr51(v uint128) uint64 { return v.hi<<13 | v.lo>>51 }

// reduceColumns folds five product columns back into 51-bit limbs,
// wrapping the top carry via 2^255 ≡ 19, and sets v.
func (v *fe) reduceColumns(r0, r1, r2, r3, r4 uint128) *fe {
	c0, c1, c2, c3, c4 := shr51(r0), shr51(r1), shr51(r2), shr51(r3), shr51(r4)
	return v.setCarried(r0.lo&mask51+c4*19, r1.lo&mask51+c0, r2.lo&mask51+c1, r3.lo&mask51+c2, r4.lo&mask51+c3)
}

// mul sets v = a * b.
func (v *fe) mul(a, b *fe) *fe {
	feMul(v, a, b)
	return v
}

// square sets v = a².
func (v *fe) square(a *fe) *fe {
	feSquare(v, a)
	return v
}

// feMulGeneric sets v = a * b: 25 limb products, with the columns that
// wrap past 2^255 pre-multiplied by 19. It is the portable body of feMul;
// the amd64 kernel (fe_amd64.s) computes the same column sums and carry
// and so returns the same limbs.
func feMulGeneric(v, a, b *fe) {
	a0, a1, a2, a3, a4 := a.l0, a.l1, a.l2, a.l3, a.l4
	b0, b1, b2, b3, b4 := b.l0, b.l1, b.l2, b.l3, b.l4
	// b limbs are < 2^52, so 19·b fits in 64 bits (< 2^57).
	b1_19, b2_19, b3_19, b4_19 := b1*19, b2*19, b3*19, b4*19

	r0 := mul64(a0, b0)
	r0 = addMul64(r0, a1, b4_19)
	r0 = addMul64(r0, a2, b3_19)
	r0 = addMul64(r0, a3, b2_19)
	r0 = addMul64(r0, a4, b1_19)

	r1 := mul64(a0, b1)
	r1 = addMul64(r1, a1, b0)
	r1 = addMul64(r1, a2, b4_19)
	r1 = addMul64(r1, a3, b3_19)
	r1 = addMul64(r1, a4, b2_19)

	r2 := mul64(a0, b2)
	r2 = addMul64(r2, a1, b1)
	r2 = addMul64(r2, a2, b0)
	r2 = addMul64(r2, a3, b4_19)
	r2 = addMul64(r2, a4, b3_19)

	r3 := mul64(a0, b3)
	r3 = addMul64(r3, a1, b2)
	r3 = addMul64(r3, a2, b1)
	r3 = addMul64(r3, a3, b0)
	r3 = addMul64(r3, a4, b4_19)

	r4 := mul64(a0, b4)
	r4 = addMul64(r4, a1, b3)
	r4 = addMul64(r4, a2, b2)
	r4 = addMul64(r4, a3, b1)
	r4 = addMul64(r4, a4, b0)

	v.reduceColumns(r0, r1, r2, r3, r4)
}

// feSquareGeneric sets v = a². The symmetric cross products are computed
// once and doubled, so a squaring costs 15 limb products instead of
// mul's 25. It is the portable body of feSquare, like feMulGeneric.
func feSquareGeneric(v, a *fe) {
	l0, l1, l2, l3, l4 := a.l0, a.l1, a.l2, a.l3, a.l4
	l0_2, l1_2 := l0*2, l1*2
	l1_38, l2_38, l3_38 := l1*38, l2*38, l3*38
	l3_19, l4_19 := l3*19, l4*19

	r0 := mul64(l0, l0)
	r0 = addMul64(r0, l1_38, l4)
	r0 = addMul64(r0, l2_38, l3)

	r1 := mul64(l0_2, l1)
	r1 = addMul64(r1, l2_38, l4)
	r1 = addMul64(r1, l3_19, l3)

	r2 := mul64(l0_2, l2)
	r2 = addMul64(r2, l1, l1)
	r2 = addMul64(r2, l3_38, l4)

	r3 := mul64(l0_2, l3)
	r3 = addMul64(r3, l1_2, l2)
	r3 = addMul64(r3, l4_19, l4)

	r4 := mul64(l0_2, l4)
	r4 = addMul64(r4, l1_2, l3)
	r4 = addMul64(r4, l2, l2)

	v.reduceColumns(r0, r1, r2, r3, r4)
}

// squareN sets v = a^(2^n), n >= 1.
func (v *fe) squareN(a *fe, n int) *fe {
	v.square(a)
	for i := 1; i < n; i++ {
		v.square(v)
	}
	return v
}

// pow2250 returns a^(2^250-1) and a^11, the common prefix of the
// inversion and square-root addition chains (254 squarings, 11
// multiplications; the chain of ref10 and RFC 7748 implementations).
func pow2250(a *fe) (r, a11 fe) {
	var t0, t1, a9 fe
	t0.square(a)         // 2
	t1.squareN(&t0, 2)   // 8
	a9.mul(a, &t1)       // 9
	a11.mul(&t0, &a9)    // 11
	t0.square(&a11)      // 22
	r.mul(&a9, &t0)      // 2^5 - 1
	t0.squareN(&r, 5)    // 2^10 - 2^5
	r.mul(&t0, &r)       // 2^10 - 1
	t0.squareN(&r, 10)   // 2^20 - 2^10
	t0.mul(&t0, &r)      // 2^20 - 1
	t1.squareN(&t0, 20)  // 2^40 - 2^20
	t0.mul(&t1, &t0)     // 2^40 - 1
	t0.squareN(&t0, 10)  // 2^50 - 2^10
	r.mul(&t0, &r)       // 2^50 - 1
	t0.squareN(&r, 50)   // 2^100 - 2^50
	t0.mul(&t0, &r)      // 2^100 - 1
	t1.squareN(&t0, 100) // 2^200 - 2^100
	t0.mul(&t1, &t0)     // 2^200 - 1
	t0.squareN(&t0, 50)  // 2^250 - 2^50
	r.mul(&t0, &r)       // 2^250 - 1
	return r, a11
}

// invert sets v = 1/a = a^(p-2) = a^(2^255-21) (and 0 for a == 0).
func (v *fe) invert(a *fe) *fe {
	r, a11 := pow2250(a)
	r.squareN(&r, 5) // 2^255 - 2^5
	return v.mul(&r, &a11)
}

// pow22523 sets v = a^((p-5)/8) = a^(2^252-3), the exponent of the
// decompression square root.
func (v *fe) pow22523(a *fe) *fe {
	r, _ := pow2250(a)
	r.squareN(&r, 2) // 2^252 - 4
	return v.mul(&r, a)
}

// fromBytes loads a 32-byte little-endian value, masking the top bit
// (the sign bit of point encodings). The result is not reduced mod p.
func (v *fe) fromBytes(b *[32]byte) *fe {
	load64 := func(off int) uint64 {
		return uint64(b[off]) | uint64(b[off+1])<<8 | uint64(b[off+2])<<16 |
			uint64(b[off+3])<<24 | uint64(b[off+4])<<32 | uint64(b[off+5])<<40 |
			uint64(b[off+6])<<48 | uint64(b[off+7])<<56
	}
	v.l0 = load64(0) & mask51
	v.l1 = load64(6) >> 3 & mask51
	v.l2 = load64(12) >> 6 & mask51
	v.l3 = load64(19) >> 1 & mask51
	v.l4 = load64(24) >> 12 & mask51
	return v
}

// toBytes stores the canonical 32-byte little-endian encoding of v.
func (v *fe) toBytes(out *[32]byte) {
	r := *v
	r.carry()
	// After carry, limbs are < 2^52 and the value is < 2^256-ish; two
	// conditional subtractions of p bring it canonical. The quotient
	// estimate trick: q = 1 iff r >= p.
	for i := 0; i < 2; i++ {
		q := (r.l0 + 19) >> 51
		q = (r.l1 + q) >> 51
		q = (r.l2 + q) >> 51
		q = (r.l3 + q) >> 51
		q = (r.l4 + q) >> 51
		r.l0 += 19 * q
		r.l1 += r.l0 >> 51
		r.l0 &= mask51
		r.l2 += r.l1 >> 51
		r.l1 &= mask51
		r.l3 += r.l2 >> 51
		r.l2 &= mask51
		r.l4 += r.l3 >> 51
		r.l3 &= mask51
		r.l4 &= mask51
	}
	for i := range out {
		out[i] = 0
	}
	put := func(off, shift int, l uint64) {
		v := l << uint(shift)
		for i := 0; i < 8 && off+i < 32; i++ {
			out[off+i] |= byte(v >> (8 * uint(i)))
		}
	}
	put(0, 0, r.l0)
	put(6, 3, r.l1)
	put(12, 6, r.l2)
	put(19, 1, r.l3)
	put(25, 4, r.l4)
}

// isZero reports whether v ≡ 0 mod p.
func (v *fe) isZero() bool {
	var b [32]byte
	v.toBytes(&b)
	var acc byte
	for _, x := range b {
		acc |= x
	}
	return acc == 0
}

// equal reports whether v ≡ u mod p.
func (v *fe) equal(u *fe) bool {
	var d fe
	return d.sub(v, u).isZero()
}

// isNegative reports the sign bit of the canonical encoding (lowest bit).
func (v *fe) isNegative() bool {
	var b [32]byte
	v.toBytes(&b)
	return b[0]&1 == 1
}
