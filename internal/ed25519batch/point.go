package ed25519batch

import "math/bits"

// point is a group element in extended twisted Edwards coordinates
// (X : Y : Z : T) with x = X/Z, y = Y/Z, x·y = T/Z.
type point struct {
	x, y, z, t fe
}

// projP2 is a point in projective coordinates (X : Y : Z), the cheapest
// input to a doubling.
type projP2 struct {
	x, y, z fe
}

// projP1xP1 is the "completed" output of an addition or doubling:
// x = X/Z, y = Y/T. Converting it costs 3 multiplications to projP2 and
// 4 to extended.
type projP1xP1 struct {
	x, y, z, t fe
}

// cachedPoint is a point prepared as the right-hand operand of additions
// (Y+X, Y−X, 2Z, 2d·T), so that each addition costs 4 multiplications
// into projP1xP1.
type cachedPoint struct {
	yPlusX, yMinusX, z2, t2d fe
}

var (
	// feD is the curve constant d = -121665/121666, feD2 is 2d. Both are
	// computed in init from the small integers so there is no hex blob to
	// get wrong; a test cross-checks feD against the RFC 8032 value.
	feD, feD2 fe
	// feSqrtM1 is √-1 = 2^((p-1)/4), used by decompression when the first
	// square-root candidate has the wrong sign of square.
	feSqrtM1 fe
	// basePoint is the Ed25519 generator B, decompressed in init from its
	// canonical encoding (y = 4/5, x positive).
	basePoint point
	// baseTable and baseTable128 hold the odd multiples B, 3B, ..., 127B
	// and the same multiples of [2^128]B: the static tables of the two
	// 128-bit halves of the basepoint scalar (width-8 NAF).
	baseTable, baseTable128 [64]cachedPoint
)

func init() {
	var n, d121666 fe
	n.l0 = 121665
	d121666.l0 = 121666
	feD.invert(&d121666)
	feD.mul(&feD, &n)
	feD.neg(&feD)
	feD2.add(&feD, &feD)

	// 2^((p-1)/4) = 2^(2^253-5) = (2^(2^252-3))² · 2.
	var two fe
	two.l0 = 2
	feSqrtM1.pow22523(&two)
	feSqrtM1.square(&feSqrtM1)
	feSqrtM1.mul(&feSqrtM1, &two)

	var enc [32]byte
	enc[0] = 0x58
	for i := 1; i < 32; i++ {
		enc[i] = 0x66
	}
	if !basePoint.setBytes(enc[:]) {
		panic("ed25519batch: base point decompression failed")
	}
	oddMultiples(baseTable[:], &basePoint)
	var b128 point
	b128.mulPow2(&basePoint, 128)
	oddMultiples(baseTable128[:], &b128)
}

// isIdentity reports whether v is the neutral element: X == 0 and Y == Z.
func (v *projP2) isIdentity() bool {
	return v.x.isZero() && v.y.equal(&v.z)
}

// toBytes stores the canonical encoding of v, at the cost of one
// inversion.
func (v *projP2) toBytes(out *[32]byte) {
	var zInv fe
	zInv.invert(&v.z)
	var a point
	a.x.mul(&v.x, &zInv)
	a.y.mul(&v.y, &zInv)
	a.toBytes(out)
}

// setBytes decodes a compressed point (RFC 8032 §5.1.3) the way
// crypto/ed25519 decodes public keys (filippo.io/edwards25519 SetBytes)
// and reports whether the point exists. Like the standard library it
// accepts two kinds of non-canonical encoding: y is used mod p, so a
// non-reduced y in [p, 2^255) decodes, and x = 0 with the sign bit set
// decodes to x = 0. Signature R values must be canonical; decode them
// with setCanonicalBytes.
func (p *point) setBytes(in []byte) bool {
	if len(in) != 32 {
		return false
	}
	b := [32]byte(in)
	signBit := b[31] >> 7
	var y fe
	y.fromBytes(&b)

	// Recover x from x² = (y²-1)/(dy²+1).
	var y2, u, v fe
	y2.square(&y)
	u.sub(&y2, &feOne)
	v.mul(&y2, &feD)
	v.add(&v, &feOne)

	// Candidate root r = u v³ (u v⁷)^((p-5)/8).
	var v2, v3, v7, r, check fe
	v2.square(&v)
	v3.mul(&v2, &v)
	v7.square(&v3)
	v7.mul(&v7, &v)
	r.mul(&u, &v7)
	r.pow22523(&r)
	r.mul(&r, &v3)
	r.mul(&r, &u)

	check.square(&r)
	check.mul(&check, &v)
	var negU fe
	negU.neg(&u)
	switch {
	case check.equal(&u):
		// r is the root.
	case check.equal(&negU):
		r.mul(&r, &feSqrtM1)
	default:
		return false // u/v is not a square: no point with this y.
	}

	if r.isNegative() != (signBit == 1) {
		r.neg(&r)
	}

	p.x = r
	p.y = y
	p.z = feOne
	p.t.mul(&r, &y)
	return true
}

// setCanonicalBytes is setBytes restricted to the canonical encoding of
// the point: y < p, and no sign bit on x = 0. A signature whose R is
// encoded any other way fails crypto/ed25519.Verify, which compares R
// byte for byte with a canonical encoding, so the batch equation
// rejects it at decode.
func (p *point) setCanonicalBytes(in []byte) bool {
	if !p.setBytes(in) {
		return false
	}
	var enc [32]byte
	p.toBytes(&enc)
	return enc == [32]byte(in)
}

// toBytes stores the canonical encoding of p, which must be affine
// (Z = 1, as setBytes leaves it): y with the sign of x in the top bit.
func (p *point) toBytes(out *[32]byte) {
	p.y.toBytes(out)
	if p.x.isNegative() {
		out[31] |= 0x80
	}
}

// fromP1xP1 sets p to the extended form of c.
func (p *point) fromP1xP1(c *projP1xP1) *point {
	p.x.mul(&c.x, &c.t)
	p.y.mul(&c.y, &c.z)
	p.z.mul(&c.z, &c.t)
	p.t.mul(&c.x, &c.y)
	return p
}

// fromP1xP1 sets v to the projective form of c.
func (v *projP2) fromP1xP1(c *projP1xP1) *projP2 {
	v.x.mul(&c.x, &c.t)
	v.y.mul(&c.y, &c.z)
	v.z.mul(&c.z, &c.t)
	return v
}

// fromPoint sets c to the cached form of p.
func (c *cachedPoint) fromPoint(p *point) *cachedPoint {
	c.yPlusX.add(&p.y, &p.x)
	c.yMinusX.sub(&p.y, &p.x)
	c.z2.add(&p.z, &p.z)
	c.t2d.mul(&p.t, &feD2)
	return c
}

// addCached sets c = p + q with the unified extended-coordinate formula
// (add-2008-hwcd-3 with k = 2d), which is complete on this curve: it
// also handles doubling and identity inputs.
func (c *projP1xP1) addCached(p *point, q *cachedPoint) *projP1xP1 {
	var ypx, ymx, pp, mm, tt2d, zz2 fe
	ypx.add(&p.y, &p.x)
	ymx.sub(&p.y, &p.x)
	pp.mul(&ypx, &q.yPlusX)
	mm.mul(&ymx, &q.yMinusX)
	tt2d.mul(&p.t, &q.t2d)
	zz2.mul(&p.z, &q.z2)
	c.x.sub(&pp, &mm)
	c.y.add(&pp, &mm)
	c.z.add(&zz2, &tt2d)
	c.t.sub(&zz2, &tt2d)
	return c
}

// subCached sets c = p - q: addCached with q negated, which swaps
// Y+X with Y−X and flips the sign of 2d·T.
func (c *projP1xP1) subCached(p *point, q *cachedPoint) *projP1xP1 {
	var ypx, ymx, pp, mm, tt2d, zz2 fe
	ypx.add(&p.y, &p.x)
	ymx.sub(&p.y, &p.x)
	pp.mul(&ypx, &q.yMinusX)
	mm.mul(&ymx, &q.yPlusX)
	tt2d.mul(&p.t, &q.t2d)
	zz2.mul(&p.z, &q.z2)
	c.x.sub(&pp, &mm)
	c.y.add(&pp, &mm)
	c.z.sub(&zz2, &tt2d)
	c.t.add(&zz2, &tt2d)
	return c
}

// double sets c = 2v with the a = −1 doubling formula (dbl-2008-hwcd):
// 4 squarings, no multiplications until the conversion out of
// projP1xP1. It is complete, like the addition formula.
func (c *projP1xP1) double(v *projP2) *projP1xP1 {
	var xx, yy, zz2, xy2 fe
	xx.square(&v.x)
	yy.square(&v.y)
	zz2.square(&v.z)
	zz2.add(&zz2, &zz2)
	xy2.add(&v.x, &v.y)
	xy2.square(&xy2)
	c.y.add(&yy, &xx)
	c.z.sub(&yy, &xx)
	c.x.sub(&xy2, &c.y)
	c.t.sub(&zz2, &c.z)
	return c
}

// double sets p = 2a.
func (p *point) double(a *point) *point {
	v := projP2{x: a.x, y: a.y, z: a.z}
	var c projP1xP1
	return p.fromP1xP1(c.double(&v))
}

// mulPow2 sets p = [2^k]a for k >= 1, staying projective between
// doublings.
func (p *point) mulPow2(a *point, k int) *point {
	v := projP2{x: a.x, y: a.y, z: a.z}
	var c projP1xP1
	for i := 1; i < k; i++ {
		v.fromP1xP1(c.double(&v))
	}
	return p.fromP1xP1(c.double(&v))
}

// oddMultiples fills table with P, 3P, 5P, ... in cached form; table[j]
// is (2j+1)P, the entry a w-NAF digit d selects as table[|d|/2].
func oddMultiples(table []cachedPoint, p *point) {
	var p2, acc point
	var p2c cachedPoint
	var c projP1xP1
	p2c.fromPoint(p2.double(p))
	acc = *p
	table[0].fromPoint(&acc)
	for j := 1; j < len(table); j++ {
		acc.fromP1xP1(c.addCached(&acc, &p2c))
		table[j].fromPoint(&acc)
	}
}

// msmTerm is one term of a multiscalar multiplication: the w-NAF digits
// of a scalar below 2^128 and the odd multiples of its point. A w-NAF of
// a 128-bit value has at most 129 digits.
type msmTerm struct {
	naf   [129]int8
	table []cachedPoint // len 2^(w-2): w = 5 for 8 entries, w = 8 for 64
}

// setScalar writes the width-w NAF of the 128-bit value lo + hi·2^64 for
// a table of 2^(w-2) entries: digits in {0, ±1, ±3, ..., ±(2^(w-1)-1)},
// at most one nonzero in any w consecutive positions. It returns the
// position of the highest nonzero digit, or -1 for zero. Variable time.
func (m *msmTerm) setScalar(lo, hi uint64, table []cachedPoint) int {
	m.table = table
	m.naf = [129]int8{}
	width := uint64(len(table)) * 4 // 2^w
	w := bits.TrailingZeros64(width)
	k0, k1, k2 := lo, hi, uint64(0) // k2 catches the carry of a negative digit
	top := -1
	for pos := 0; k0|k1|k2 != 0; {
		// n low bits of k are zero: a run of zero digits, or the w bits a
		// digit cleared. They are dropped at once; Go's shifts by 64
		// yield 0, so n = 64 moves k1 into k0.
		n := bits.TrailingZeros64(k0)
		if n == 0 {
			d := int64(k0 & (width - 1))
			if d >= int64(width/2) {
				d -= int64(width)
			}
			m.naf[pos] = int8(d)
			top = pos
			// k -= d; either way the low w bits of k become zero.
			var c uint64
			if d > 0 {
				k0, c = bits.Sub64(k0, uint64(d), 0)
				k1, c = bits.Sub64(k1, 0, c)
				k2 -= c
			} else {
				k0, c = bits.Add64(k0, uint64(-d), 0)
				k1, c = bits.Add64(k1, 0, c)
				k2 += c
			}
			n = w
		}
		k0 = k0>>n | k1<<(64-n)
		k1 = k1>>n | k2<<(64-n)
		k2 >>= n
		pos += n
	}
	return top
}

// negate flips the sign of every digit, so the term adds −[k]P.
func (m *msmTerm) negate() {
	for i := range m.naf {
		m.naf[i] = -m.naf[i]
	}
}

// vartimeMultiscalar sets v = Σ terms[i] by Straus' method: one shared
// chain of top+1 doublings, with each term's nonzero digits added from
// its table. Everything stays projective; a position with additions pays
// one conversion to extended form per addition.
func vartimeMultiscalar(v *projP2, terms []msmTerm, top int) *projP2 {
	*v = projP2{y: feOne, z: feOne}
	var c projP1xP1
	var e point
	for pos := top; pos >= 0; pos-- {
		c.double(v)
		for i := range terms {
			t := &terms[i]
			d := t.naf[pos]
			if d == 0 {
				continue
			}
			e.fromP1xP1(&c)
			if d > 0 {
				c.addCached(&e, &t.table[d/2])
			} else {
				c.subCached(&e, &t.table[-d/2])
			}
		}
		v.fromP1xP1(&c)
	}
	return v
}
