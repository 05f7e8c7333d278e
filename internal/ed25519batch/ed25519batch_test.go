package ed25519batch

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"fmt"
	"math/big"
	"math/bits"
	mrand "math/rand"
	"testing"
)

var pBig = new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 255), big.NewInt(19))

var lBig = new(big.Int).SetBits([]big.Word{
	big.Word(lWords[0]), big.Word(lWords[1]), big.Word(lWords[2]), big.Word(lWords[3]),
})

func feToBig(v *fe) *big.Int {
	var b [32]byte
	v.toBytes(&b)
	le := make([]byte, 32)
	for i := range le {
		le[i] = b[31-i]
	}
	return new(big.Int).SetBytes(le)
}

func bigToFe(x *big.Int) fe {
	var b [32]byte
	m := new(big.Int).Mod(x, pBig)
	raw := m.Bytes()
	for i, c := range raw {
		b[len(raw)-1-i] = c
	}
	var v fe
	v.fromBytes(&b)
	return v
}

func randFe(rng *mrand.Rand) (fe, *big.Int) {
	x := new(big.Int).Rand(rng, pBig)
	return bigToFe(x), x
}

func TestFieldArithmeticVsBig(t *testing.T) {
	rng := mrand.New(mrand.NewSource(1))
	for i := 0; i < 500; i++ {
		a, aB := randFe(rng)
		b, bB := randFe(rng)
		var got fe

		got.add(&a, &b)
		want := new(big.Int).Mod(new(big.Int).Add(aB, bB), pBig)
		if feToBig(&got).Cmp(want) != 0 {
			t.Fatalf("add mismatch at %d", i)
		}
		got.sub(&a, &b)
		want.Mod(new(big.Int).Sub(aB, bB), pBig)
		if feToBig(&got).Cmp(want) != 0 {
			t.Fatalf("sub mismatch at %d", i)
		}
		got.mul(&a, &b)
		want.Mod(new(big.Int).Mul(aB, bB), pBig)
		if feToBig(&got).Cmp(want) != 0 {
			t.Fatalf("mul mismatch at %d", i)
		}
		got.square(&a)
		want.Mod(new(big.Int).Mul(aB, aB), pBig)
		if feToBig(&got).Cmp(want) != 0 {
			t.Fatalf("square mismatch at %d", i)
		}
		got.neg(&a)
		want.Mod(new(big.Int).Neg(aB), pBig)
		if feToBig(&got).Cmp(want) != 0 {
			t.Fatalf("neg mismatch at %d", i)
		}
		if aB.Sign() != 0 {
			got.invert(&a)
			want.ModInverse(aB, pBig)
			if feToBig(&got).Cmp(want) != 0 {
				t.Fatalf("invert mismatch at %d", i)
			}
		}
	}
}

func TestFieldBytesRoundTrip(t *testing.T) {
	rng := mrand.New(mrand.NewSource(2))
	for i := 0; i < 200; i++ {
		a, aB := randFe(rng)
		var enc [32]byte
		a.toBytes(&enc)
		var back fe
		back.fromBytes(&enc)
		if feToBig(&back).Cmp(aB) != 0 {
			t.Fatalf("round trip mismatch at %d", i)
		}
	}
	// Non-canonical input (p+1) must load as 1.
	var b [32]byte
	b[0] = 0xee // p+1 = 2^255-18
	for i := 1; i < 31; i++ {
		b[i] = 0xff
	}
	b[31] = 0x7f
	var v fe
	v.fromBytes(&b)
	if feToBig(&v).Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("p+1 should reduce to 1, got %v", feToBig(&v))
	}
}

// exp sets v = a^e where e is 32 little-endian bytes, by square-and-
// multiply: the generic reference for the addition chains of invert and
// pow22523.
func (v *fe) exp(a *fe, e *[32]byte) *fe {
	out := feOne
	base := *a
	for i := 0; i < 255; i++ {
		if e[i/8]>>(uint(i)%8)&1 == 1 {
			out.mul(&out, &base)
		}
		base.square(&base)
	}
	*v = out
	return v
}

// leBytes32 returns x (< 2^256) as 32 little-endian bytes.
func leBytes32(x *big.Int) [32]byte {
	var b [32]byte
	raw := x.Bytes()
	for i, c := range raw {
		b[len(raw)-1-i] = c
	}
	return b
}

func TestPow22523AndInvertVsReference(t *testing.T) {
	p58 := new(big.Int).Rsh(new(big.Int).Sub(pBig, big.NewInt(5)), 3) // (p-5)/8
	p2 := new(big.Int).Sub(pBig, big.NewInt(2))
	e58, e2 := leBytes32(p58), leBytes32(p2)
	rng := mrand.New(mrand.NewSource(5))
	inputs := []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(2), new(big.Int).Sub(pBig, big.NewInt(1))}
	for i := 0; i < 200; i++ {
		inputs = append(inputs, new(big.Int).Rand(rng, pBig))
	}
	for i, xB := range inputs {
		x := bigToFe(xB)
		var got, ref fe
		got.pow22523(&x)
		if want := new(big.Int).Exp(xB, p58, pBig); feToBig(&got).Cmp(want) != 0 {
			t.Fatalf("pow22523 mismatch vs big.Exp at %d", i)
		}
		if ref.exp(&x, &e58); !got.equal(&ref) {
			t.Fatalf("pow22523 mismatch vs square-and-multiply at %d", i)
		}
		got.invert(&x)
		if want := new(big.Int).Exp(xB, p2, pBig); feToBig(&got).Cmp(want) != 0 {
			t.Fatalf("invert mismatch vs big.Exp at %d", i)
		}
		if ref.exp(&x, &e2); !got.equal(&ref) {
			t.Fatalf("invert mismatch vs square-and-multiply at %d", i)
		}
	}
}

func TestSqrtM1(t *testing.T) {
	var sq, minusOne fe
	sq.square(&feSqrtM1)
	minusOne.neg(&feOne)
	if !sq.equal(&minusOne) {
		t.Fatal("sqrtM1^2 != -1")
	}
}

func TestCurveConstantD(t *testing.T) {
	// RFC 8032: d = 370957059346694393431380835087545651895421138798432190163887855330
	// 85940283555
	want, _ := new(big.Int).SetString("37095705934669439343138083508754565189542113879843219016388785533085940283555", 10)
	if feToBig(&feD).Cmp(want) != 0 {
		t.Fatalf("d mismatch: %v", feToBig(&feD))
	}
}

func onCurve(p *point) bool {
	// -x² + y² = z² + d·t²/z²·z² in projective form:
	// (-X² + Y²)·Z² == Z⁴ + d·X²·Y²  with T = XY/Z:
	// check -X²+Y² == Z² + d T² and X·Y == Z·T.
	var x2, y2, z2, t2, lhs, rhs, xy, zt fe
	x2.square(&p.x)
	y2.square(&p.y)
	z2.square(&p.z)
	t2.square(&p.t)
	lhs.sub(&y2, &x2)
	rhs.mul(&t2, &feD)
	rhs.add(&rhs, &z2)
	if !lhs.equal(&rhs) {
		return false
	}
	xy.mul(&p.x, &p.y)
	zt.mul(&p.z, &p.t)
	return xy.equal(&zt)
}

// setIdentity sets p to the neutral element (0, 1).
func (p *point) setIdentity() *point {
	p.x = feZero
	p.y = feOne
	p.z = feOne
	p.t = feZero
	return p
}

// isIdentity reports whether p is the neutral element: X == 0 and Y == Z.
func (p *point) isIdentity() bool {
	return p.x.isZero() && p.y.equal(&p.z)
}

// add sets p = a + b with the unified addition, the operation the test
// references are built from.
func (p *point) add(a, b *point) *point {
	var bc cachedPoint
	var c projP1xP1
	bc.fromPoint(b)
	return p.fromP1xP1(c.addCached(a, &bc))
}

// sub sets p = a - b.
func (p *point) sub(a, b *point) *point {
	var bc cachedPoint
	var c projP1xP1
	bc.fromPoint(b)
	return p.fromP1xP1(c.subCached(a, &bc))
}

func TestBasePoint(t *testing.T) {
	if !onCurve(&basePoint) {
		t.Fatal("base point not on curve")
	}
	// y = 4/5.
	var five, inv5, y fe
	five.l0 = 5
	inv5.invert(&five)
	y.add(&inv5, &inv5)
	y.add(&y, &y) // 4/5
	if !basePoint.y.equal(&y) {
		t.Fatal("base point y != 4/5")
	}
}

// refScalarMult returns [k]p by double-and-add over the unified
// addition only (doubling as add(a, a)): the slow reference for double,
// the tables and the multiscalar.
func refScalarMult(k *big.Int, p *point) point {
	var acc point
	acc.setIdentity()
	for i := k.BitLen() - 1; i >= 0; i-- {
		acc.add(&acc, &acc)
		if k.Bit(i) == 1 {
			acc.add(&acc, p)
		}
	}
	return acc
}

func TestPointAddDouble(t *testing.T) {
	rng := mrand.New(mrand.NewSource(6))
	var id point
	id.setIdentity()
	t8 := smallOrder()[1]
	cases := []point{id, basePoint, t8}
	for i := 0; i < 20; i++ {
		k := new(big.Int).Rand(rng, lBig)
		p := refScalarMult(k, &basePoint)
		cases = append(cases, p)
		var pt point
		cases = append(cases, *pt.add(&p, &t8)) // mixed order
	}
	for i := range cases {
		p := &cases[i]
		var d, a point
		d.double(p)
		a.add(p, p)
		if !onCurve(&d) || !feEqualPoint(&d, &a) {
			t.Fatalf("case %d: double != add(a, a)", i)
		}
	}
	// The order-8 point really has order 8 under the dedicated doubling.
	var q point
	q.double(&t8)
	q.double(&q)
	if q.isIdentity() {
		t.Fatal("[4]T8 is the identity")
	}
	if q.double(&q); !q.isIdentity() {
		t.Fatal("[8]T8 is not the identity")
	}
	var m point
	if m.mulPow2(&basePoint, 128); !feEqualPoint(&m, ptr(refScalarMult(new(big.Int).Lsh(big.NewInt(1), 128), &basePoint))) {
		t.Fatal("mulPow2(B, 128) != [2^128]B")
	}
	// Commutativity, B + identity == B and B - B == identity.
	var d1, s1, s2 point
	d1.double(&basePoint)
	s1.add(&d1, &basePoint)
	s2.add(&basePoint, &d1)
	if !feEqualPoint(&s1, &s2) {
		t.Fatal("addition not commutative")
	}
	var r point
	r.add(&basePoint, &id)
	if !feEqualPoint(&r, &basePoint) {
		t.Fatal("B + 0 != B")
	}
	if r.sub(&basePoint, &basePoint); !r.isIdentity() {
		t.Fatal("B - B != 0")
	}
}

func ptr(p point) *point { return &p }

// p2EqualPoint compares a projective result against an extended point.
func p2EqualPoint(v *projP2, p *point) bool {
	return feEqualPoint(&point{x: v.x, y: v.y, z: v.z}, p)
}

func TestOddMultiplesTables(t *testing.T) {
	rng := mrand.New(mrand.NewSource(7))
	check := func(name string, table []cachedPoint, p *point) {
		for j := range table {
			want := refScalarMult(big.NewInt(int64(2*j+1)), p)
			var got point
			var c projP1xP1
			var id point
			id.setIdentity()
			got.fromP1xP1(c.addCached(&id, &table[j]))
			if !feEqualPoint(&got, &want) {
				t.Fatalf("%s: table[%d] != %d·P", name, j, 2*j+1)
			}
		}
	}
	check("baseTable", baseTable[:], &basePoint)
	b128 := refScalarMult(new(big.Int).Lsh(big.NewInt(1), 128), &basePoint)
	check("baseTable128", baseTable128[:], &b128)
	p := refScalarMult(new(big.Int).Rand(rng, lBig), &basePoint)
	p.add(&p, ptr(smallOrder()[1]))
	var table [8]cachedPoint
	oddMultiples(table[:], &p)
	check("oddMultiples", table[:], &p)
}

func TestMultiscalarVsReference(t *testing.T) {
	rng := mrand.New(mrand.NewSource(8))
	t8 := smallOrder()[1]
	two128 := new(big.Int).Lsh(big.NewInt(1), 128)
	for trial := 0; trial < 12; trial++ {
		var keys keyCache
		keys.index = make(map[[32]byte]*keyEntry)
		var terms []msmTerm
		want := point{}
		want.setIdentity()
		top := -1
		// addTerm adds [k]p, k < 2^128, to both sides.
		addTerm := func(k *big.Int, table []cachedPoint, p *point) {
			terms = append(terms, msmTerm{})
			hi := new(big.Int).Rsh(k, 64).Uint64()
			top = max(top, terms[len(terms)-1].setScalar(k.Uint64(), hi, table))
			ref := refScalarMult(k, p)
			want.add(&want, &ref)
		}
		// Basepoint halves (static w = 8 tables): a full scalar k = lo + 2^128·hi.
		k := new(big.Int).Rand(rng, lBig)
		if trial == 0 {
			k.Sub(lBig, big.NewInt(1))
		}
		kLo := new(big.Int).Mod(k, two128)
		kHi := new(big.Int).Rsh(k, 128)
		addTerm(kLo, baseTable[:], &basePoint)
		b128 := refScalarMult(two128, &basePoint)
		addTerm(kHi, baseTable128[:], &b128)
		// Cached key tables (w = 5), with and without a torsion component.
		for j := 0; j < 1+trial%3; j++ {
			a := refScalarMult(new(big.Int).Rand(rng, lBig), &basePoint)
			if j == 1 {
				a.add(&a, &t8)
			}
			var enc [32]byte
			var x, y, zInv fe
			zInv.invert(&a.z)
			x.mul(&a.x, &zInv)
			y.mul(&a.y, &zInv)
			y.toBytes(&enc)
			if x.isNegative() {
				enc[31] |= 0x80
			}
			e, ok := keys.lookup(enc[:], 1)
			if !ok {
				t.Fatal("key decode failed")
			}
			s := new(big.Int).Rand(rng, lBig)
			addTerm(new(big.Int).Mod(s, two128), e.lo[:], &a)
			a128 := refScalarMult(two128, &a)
			addTerm(new(big.Int).Rsh(s, 128), e.hi[:], &a128)
		}
		// Per-batch tables (w = 5) under 128-bit blinders.
		for j := 0; j < 1+trial; j++ {
			r := refScalarMult(new(big.Int).Rand(rng, lBig), &basePoint)
			var table [8]cachedPoint
			oddMultiples(table[:], &r)
			addTerm(new(big.Int).Rand(rng, two128), table[:], &r)
		}
		var got projP2
		vartimeMultiscalar(&got, terms, top)
		if !p2EqualPoint(&got, &want) {
			t.Fatalf("trial %d: multiscalar != Σ reference", trial)
		}
	}
}

// feEqualPoint compares projective points: x1/z1 == x2/z2 && y1/z1 == y2/z2.
func feEqualPoint(a, b *point) bool {
	var l, r fe
	l.mul(&a.x, &b.z)
	r.mul(&b.x, &a.z)
	if !l.equal(&r) {
		return false
	}
	l.mul(&a.y, &b.z)
	r.mul(&b.y, &a.z)
	return l.equal(&r)
}

func TestScalarArithmeticVsBig(t *testing.T) {
	rng := mrand.New(mrand.NewSource(3))
	toBig := func(s *scalar) *big.Int {
		return new(big.Int).SetBits([]big.Word{
			big.Word(s[0]), big.Word(s[1]), big.Word(s[2]), big.Word(s[3]),
		})
	}
	for i := 0; i < 500; i++ {
		var wide [64]byte
		rng.Read(wide[:])
		var s scalar
		s.setBytesWide(&wide)
		le := make([]byte, 64)
		for j := range le {
			le[j] = wide[63-j]
		}
		want := new(big.Int).Mod(new(big.Int).SetBytes(le), lBig)
		if toBig(&s).Cmp(want) != 0 {
			t.Fatalf("setBytesWide mismatch at %d: got %v want %v", i, toBig(&s), want)
		}

		var wide2 [64]byte
		rng.Read(wide2[:])
		var s2 scalar
		s2.setBytesWide(&wide2)
		b1, b2 := toBig(&s), toBig(&s2)

		var got scalar
		got.mul(&s, &s2)
		want.Mod(new(big.Int).Mul(b1, b2), lBig)
		if toBig(&got).Cmp(want) != 0 {
			t.Fatalf("scalar mul mismatch at %d", i)
		}
		got.add(&s, &s2)
		want.Mod(new(big.Int).Add(b1, b2), lBig)
		if toBig(&got).Cmp(want) != 0 {
			t.Fatalf("scalar add mismatch at %d", i)
		}
		got.sub(&s, &s2)
		want.Mod(new(big.Int).Sub(b1, b2), lBig)
		if toBig(&got).Cmp(want) != 0 {
			t.Fatalf("scalar sub mismatch at %d", i)
		}
	}
	// Canonicality: L and L-1.
	var s scalar
	lBytes := make([]byte, 32)
	for i, w := range lWords {
		for j := 0; j < 8; j++ {
			lBytes[i*8+j] = byte(w >> (8 * uint(j)))
		}
	}
	if s.setCanonicalBytes(lBytes) {
		t.Fatal("L accepted as canonical")
	}
	lBytes[0]-- // L-1
	if !s.setCanonicalBytes(lBytes) {
		t.Fatal("L-1 rejected")
	}
}

func TestNonAdjacentForm(t *testing.T) {
	rng := mrand.New(mrand.NewSource(4))
	for _, entries := range []int{8, 64} { // w = 5 and w = 8
		table := make([]cachedPoint, entries)
		w := bits.Len(uint(entries)) + 1
		for i := 0; i < 100; i++ {
			lo, hi := rng.Uint64(), rng.Uint64()
			switch i {
			case 0:
				lo, hi = 0, 0
			case 1:
				lo, hi = ^uint64(0), ^uint64(0) // 2^128-1: the NAF needs digit 128
			case 2:
				lo = 0 // a run of 64 zero digits, skipped in one shift
			case 3:
				lo, hi = 1<<63, 0 // one digit, at the top of the low word
			}
			want := new(big.Int).Lsh(new(big.Int).SetUint64(hi), 64)
			want.Or(want, new(big.Int).SetUint64(lo))
			var m msmTerm
			top := m.setScalar(lo, hi, table)
			sum := new(big.Int)
			last, gotTop := -w, -1
			for pos, d := range m.naf {
				if d == 0 {
					continue
				}
				if d%2 == 0 || int(d) >= entries*2 || int(d) <= -entries*2 {
					t.Fatalf("w=%d: invalid naf digit %d at %d", w, d, pos)
				}
				if pos-last < w {
					t.Fatalf("w=%d: nonzero digits at %d and %d closer than w", w, last, pos)
				}
				last, gotTop = pos, pos
				sum.Add(sum, new(big.Int).Lsh(big.NewInt(int64(d)), uint(pos)))
			}
			if sum.Cmp(want) != 0 {
				t.Fatalf("w=%d: naf does not reconstruct scalar at %d", w, i)
			}
			if top != gotTop {
				t.Fatalf("w=%d: top = %d, highest nonzero digit at %d", w, top, gotTop)
			}
		}
	}
}

func TestMultiscalarVsSignature(t *testing.T) {
	// For an honest signature, [s]B - [h]A - R must be small order
	// (exactly the batch equation with z=1, n=1).
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("multiscalar check")
	sig := ed25519.Sign(priv, msg)

	v := NewVerifier()
	v.Add(pub, msg, sig)
	if !v.Verify() {
		t.Fatal("honest signature failed batch equation")
	}
}

func TestBatchHonest(t *testing.T) {
	v := NewVerifier()
	for i := 0; i < 12; i++ {
		pub, priv, err := ed25519.GenerateKey(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		msg := []byte{byte(i), 0xAB, byte(i * 7)}
		v.Add(pub, msg, ed25519.Sign(priv, msg))
	}
	if !v.Verify() {
		t.Fatal("honest batch rejected")
	}
}

func TestBatchSharedKeys(t *testing.T) {
	// Repeated public keys exercise the A-term merging path.
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	v := NewVerifier()
	for i := 0; i < 8; i++ {
		msg := bytes.Repeat([]byte{byte(i)}, 10+i)
		v.Add(pub, msg, ed25519.Sign(priv, msg))
	}
	if len(v.batchKeys) != 1 {
		t.Fatalf("expected 1 merged key, got %d", len(v.batchKeys))
	}
	if !v.Verify() {
		t.Fatal("shared-key batch rejected")
	}
}

func TestBatchMixedInvalid(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		v := NewVerifier()
		sigs := make([][]byte, 6)
		pubs := make([]ed25519.PublicKey, 6)
		msgs := make([][]byte, 6)
		for i := range sigs {
			pub, priv, err := ed25519.GenerateKey(rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			pubs[i], msgs[i] = pub, []byte{byte(trial), byte(i)}
			sigs[i] = ed25519.Sign(priv, msgs[i])
		}
		// Corrupt one item per trial, rotating the corruption style.
		bad := trial % 6
		switch trial % 3 {
		case 0:
			sigs[bad] = append([]byte(nil), sigs[bad]...)
			sigs[bad][40] ^= 0x40
		case 1:
			msgs[bad] = append([]byte(nil), msgs[bad]...)
			msgs[bad][0] ^= 1
		case 2:
			other, _, _ := ed25519.GenerateKey(rand.Reader)
			pubs[bad] = other
		}
		for i := range sigs {
			v.Add(pubs[i], msgs[i], sigs[i])
		}
		if v.Verify() {
			t.Fatalf("trial %d: batch with corrupted item %d accepted", trial, bad)
		}
		// The per-item fallback must agree item by item with the stdlib.
		for i := range sigs {
			want := ed25519.Verify(pubs[i], msgs[i], sigs[i])
			single := NewVerifier()
			single.Add(pubs[i], msgs[i], sigs[i])
			if got := single.Verify(); got != want {
				t.Fatalf("trial %d item %d: batch-of-one %v, stdlib %v", trial, i, got, want)
			}
		}
	}
}

func TestBatchMalformed(t *testing.T) {
	pub, priv, _ := ed25519.GenerateKey(rand.Reader)
	msg := []byte("m")
	sig := ed25519.Sign(priv, msg)

	check := func(name string, f func(v *Verifier)) {
		v := NewVerifier()
		f(v)
		if v.Verify() {
			t.Fatalf("%s accepted", name)
		}
	}
	check("short key", func(v *Verifier) { v.Add(pub[:31], msg, sig) })
	check("short sig", func(v *Verifier) { v.Add(pub, msg, sig[:63]) })
	check("non-canonical s", func(v *Verifier) {
		// s' = s + L: same residue, non-canonical encoding. The stdlib
		// rejects it, so the batch must too.
		var s scalar
		s.setCanonicalBytes(sig[32:])
		sBig := new(big.Int).SetBits([]big.Word{
			big.Word(s[0]), big.Word(s[1]), big.Word(s[2]), big.Word(s[3]),
		})
		sBig.Add(sBig, lBig)
		raw := sBig.Bytes()
		bad := append([]byte(nil), sig...)
		for i := range bad[32:] {
			bad[32+i] = 0
		}
		for i, c := range raw {
			bad[32+len(raw)-1-i] = c
		}
		if ed25519.Verify(pub, msg, bad) {
			t.Fatal("stdlib accepted non-canonical s (test setup broken)")
		}
		v.Add(pub, msg, bad)
	})
	check("R not on curve", func(v *Verifier) {
		bad := append([]byte(nil), sig...)
		for {
			bad[0]++
			var p point
			if !p.setBytes(bad[:32]) {
				break
			}
		}
		v.Add(pub, msg, bad)
	})
	check("pub not on curve", func(v *Verifier) {
		badPub := append(ed25519.PublicKey(nil), pub...)
		for {
			badPub[0]++
			var p point
			if !p.setBytes(badPub[:32]) {
				break
			}
		}
		v.Add(badPub, msg, sig)
	})
}

func TestBatchEmptyAndReuse(t *testing.T) {
	v := NewVerifier()
	if !v.Verify() {
		t.Fatal("empty batch rejected")
	}
	pub, priv, _ := ed25519.GenerateKey(rand.Reader)
	msg := []byte("reuse")
	v.Add(pub, msg, ed25519.Sign(priv, msg))
	if !v.Verify() {
		t.Fatal("batch 1 rejected")
	}
	// Poison, then Reset must fully recover.
	v.Reset()
	v.Add(pub, msg, []byte("bogus"))
	if v.Verify() {
		t.Fatal("poisoned batch accepted")
	}
	v.Reset()
	v.Add(pub, msg, ed25519.Sign(priv, msg))
	if !v.Verify() {
		t.Fatal("verifier did not recover after Reset")
	}
	if v.Len() != 1 {
		t.Fatalf("Len = %d, want 1", v.Len())
	}
}

func TestVerifyBatchConvenience(t *testing.T) {
	var pubs []ed25519.PublicKey
	var msgs, sigs [][]byte
	for i := 0; i < 4; i++ {
		pub, priv, _ := ed25519.GenerateKey(rand.Reader)
		m := []byte{byte(i)}
		pubs = append(pubs, pub)
		msgs = append(msgs, m)
		sigs = append(sigs, ed25519.Sign(priv, m))
	}
	if !VerifyBatch(pubs, msgs, sigs) {
		t.Fatal("convenience batch rejected")
	}
	sigs[2][5] ^= 1
	if VerifyBatch(pubs, msgs, sigs) {
		t.Fatal("corrupted convenience batch accepted")
	}
	if VerifyBatch(pubs[:3], msgs, sigs) {
		t.Fatal("length mismatch accepted")
	}
}

// BenchmarkVerifyBatchSweep is the evidence for evidence.BatchVerifier's
// window rule: ns per signature of one batch equation against the
// per-item path — one VerifyOne per signature on the same Verifier
// (arm "one") — and, for reference, one crypto/ed25519.Verify per
// signature (arm "stdlib"), over window sizes n and two key shapes:
// every signature under its own key (u = n) and three keys shared
// round-robin (u = min(n, 3)). The same keys sign every window, so the
// batch and VerifyOne run with a warm key cache, as a switch or
// appraiser does in steady state; at n = 96 and 192 the distinct shape
// overflows the cache bound, and the keys past it are prepared afresh
// in every window.
func BenchmarkVerifyBatchSweep(b *testing.B) {
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 16, 96, 192} {
		for _, shape := range []struct {
			name string
			keys int
		}{{"distinct", n}, {"3keys", min(n, 3)}} {
			pubs, msgs, sigs := sweepWindow(n, shape.keys)
			name := fmt.Sprintf("n=%d/%s", n, shape.name)
			b.Run(name+"/batch", func(b *testing.B) {
				v := NewVerifier()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					v.Reset()
					for j := range sigs {
						v.Add(pubs[j], msgs[j], sigs[j])
					}
					if !v.Verify() {
						b.Fatal("batch rejected")
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/sig")
			})
			b.Run(name+"/one", func(b *testing.B) {
				v := NewVerifier()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for j := range sigs {
						if !v.VerifyOne(pubs[j], msgs[j], sigs[j]) {
							b.Fatal("rejected")
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/sig")
			})
			b.Run(name+"/stdlib", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for j := range sigs {
						if !ed25519.Verify(pubs[j], msgs[j], sigs[j]) {
							b.Fatal("rejected")
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/sig")
			})
		}
	}
}

// sweepWindow returns n honest signatures over 64-byte messages, signed
// round-robin by the given number of keys.
func sweepWindow(n, keys int) (pubs []ed25519.PublicKey, msgs, sigs [][]byte) {
	rng := mrand.New(mrand.NewSource(int64(n*1000 + keys)))
	var privs []ed25519.PrivateKey
	for i := 0; i < keys; i++ {
		pub, priv, _ := ed25519.GenerateKey(rng)
		pubs = append(pubs, pub)
		privs = append(privs, priv)
	}
	for i := len(pubs); i < n; i++ {
		pubs = append(pubs, pubs[i%keys])
	}
	for i := 0; i < n; i++ {
		m := make([]byte, 64)
		rng.Read(m)
		msgs = append(msgs, m)
		sigs = append(sigs, ed25519.Sign(privs[i%keys], m))
	}
	return pubs, msgs, sigs
}
