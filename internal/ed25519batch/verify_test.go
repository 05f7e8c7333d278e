package ed25519batch

import (
	"crypto/ed25519"
	"crypto/sha512"
	"math/big"
	mrand "math/rand"
	"sync"
	"testing"
)

// TestFieldKernelsVsGeneric checks feMul and feSquare (the amd64 kernels
// unless built with -tags purego) against the portable Go bodies, limb
// for limb, on random limbs below the 2^52 bound the field operations
// accept, on the largest limbs callers produce (every limb at the
// setCarried bound 2^51 + 2^18 − 1), on every limb at 2^52 − 1, and
// with the output aliasing an input.
func TestFieldKernelsVsGeneric(t *testing.T) {
	rng := mrand.New(mrand.NewSource(13))
	const carried = 1<<51 + 1<<18 - 1
	const loose = 1<<52 - 1
	limbs := func(f func() uint64) fe { return fe{f(), f(), f(), f(), f()} }
	cases := [][2]fe{
		{limbs(func() uint64 { return carried }), limbs(func() uint64 { return carried })},
		{limbs(func() uint64 { return loose }), limbs(func() uint64 { return loose })},
		{limbs(func() uint64 { return loose }), feOne},
		{feZero, limbs(func() uint64 { return loose })},
	}
	for i := 0; i < 2000; i++ {
		r := func() uint64 { return rng.Uint64() & loose }
		cases = append(cases, [2]fe{limbs(r), limbs(r)})
	}
	for i, c := range cases {
		a, b := c[0], c[1]
		var got, want fe
		feMul(&got, &a, &b)
		feMulGeneric(&want, &a, &b)
		if got != want {
			t.Fatalf("case %d: feMul(%v, %v) = %v, generic %v", i, a, b, got, want)
		}
		feSquare(&got, &a)
		feSquareGeneric(&want, &a)
		if got != want {
			t.Fatalf("case %d: feSquare(%v) = %v, generic %v", i, a, got, want)
		}
		alias := a
		feMul(&alias, &alias, &b)
		if feMulGeneric(&want, &a, &b); alias != want {
			t.Fatalf("case %d: aliased feMul = %v, generic %v", i, alias, want)
		}
		alias = a
		feSquare(&alias, &alias)
		if feSquareGeneric(&want, &a); alias != want {
			t.Fatalf("case %d: aliased feSquare = %v, generic %v", i, alias, want)
		}
	}
}

// BenchmarkFieldKernels times feMul and feSquare (the amd64 kernels
// unless built with -tags purego) against the portable Go bodies.
func BenchmarkFieldKernels(b *testing.B) {
	x := fe{1<<51 - 3, 12345, 1<<50 + 7, 99, 1<<51 - 19}
	y := fe{7, 1<<51 - 1, 3, 1<<49 + 11, 424242}
	for _, bm := range []struct {
		name string
		f    func()
	}{
		{"mul/kernel", func() { feMul(&x, &x, &y) }},
		{"mul/generic", func() { feMulGeneric(&x, &x, &y) }},
		{"square/kernel", func() { feSquare(&x, &x) }},
		{"square/generic", func() { feSquareGeneric(&x, &x) }},
	} {
		b.Run(bm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bm.f()
			}
		})
	}
}

// smallOrder returns the eight points of the small-order subgroup as
// [j]T for a point T of order 8, so smallOrder()[j] has order 8 for odd
// j, 4 for j = 2 and 6, 2 for j = 4, and is the identity for j = 0.
var smallOrder = sync.OnceValue(func() [8]point {
	var enc [32]byte
	for i := 0; ; i++ {
		enc[0] = byte(i)
		var p point
		if !p.setCanonicalBytes(enc[:]) {
			continue
		}
		t8 := refScalarMult(lBig, &p) // [L]P is in the torsion subgroup
		var t4 point
		if !t4.double(&t8).double(&t4).isIdentity() {
			var ts [8]point
			ts[0].setIdentity()
			for j := 1; j < 8; j++ {
				ts[j].add(&ts[j-1], &t8)
			}
			return ts
		}
	}
})

// mulBase returns [k]B in extended coordinates.
func mulBase(k *scalar) point {
	var terms [2]msmTerm
	top := terms[0].setScalar(k[0], k[1], baseTable[:])
	top = max(top, terms[1].setScalar(k[2], k[3], baseTable128[:]))
	var v projP2
	vartimeMultiscalar(&v, terms[:], top)
	var p point
	p.x.mul(&v.x, &v.z)
	p.y.mul(&v.y, &v.z)
	p.z.square(&v.z)
	p.t.mul(&v.x, &v.y)
	return p
}

// encodePoint returns the canonical encoding of p.
func encodePoint(p *point) [32]byte {
	var enc [32]byte
	(&projP2{x: p.x, y: p.y, z: p.z}).toBytes(&enc)
	return enc
}

// scalarBytes returns the 32-byte little-endian encoding of s.
func scalarBytes(s *scalar) [32]byte {
	var b [32]byte
	for i, w := range s {
		for j := 0; j < 8; j++ {
			b[i*8+j] = byte(w >> (8 * uint(j)))
		}
	}
	return b
}

// looseEncoding rewrites a canonical point encoding into one of the
// non-canonical forms crypto/ed25519 still decodes: y + p when y < 19
// (a non-reduced y below 2^255), or else the sign bit set on x = 0. It
// reports false if neither applies.
func looseEncoding(enc *[32]byte) bool {
	sign := enc[31] & 0x80
	le := *enc
	le[31] &= 0x7f
	be := make([]byte, 32)
	for i := range be {
		be[i] = le[31-i]
	}
	y := new(big.Int).SetBytes(be)
	if y.Cmp(big.NewInt(19)) < 0 {
		y.Add(y, pBig)
		*enc = [32]byte{}
		raw := y.Bytes()
		for i, c := range raw {
			enc[len(raw)-1-i] = c
		}
		enc[31] |= sign
		return true
	}
	var p point
	if p.setBytes(enc[:]) && p.x.isZero() && sign == 0 {
		enc[31] |= 0x80
		return true
	}
	return false
}

// torsionCase describes a signature over a key with a small-order
// component: A = [a]B + T_A and R = [r]B + T_R, with T_A and T_R drawn
// from smallOrder, s = r + k·a mod L and k = SHA-512(R ‖ A ‖ M) over the
// bytes as given. crypto/ed25519 accepts exactly when T_R = −[k]T_A, so
// over random k both verdicts occur. zeroA drops [a]B (A = T_A, so x = 0
// and small-y keys occur) and looseA encodes A with looseEncoding where
// it applies; zeroR and looseR do the same for R, and a loosely encoded
// R is always rejected.
type torsionCase struct {
	tA, tR        int
	zeroA, looseA bool
	zeroR, looseR bool
}

// torsionShape maps two fuzz bytes onto a torsionCase.
func torsionShape(b, c uint8) torsionCase {
	return torsionCase{
		tA: int(b & 7), tR: int(b >> 3 & 7), zeroA: b&0x40 != 0, looseA: b&0x80 != 0,
		zeroR: c&0x40 != 0, looseR: c&0x80 != 0,
	}
}

// sign returns (pub, sig) for msg under the case's key, with the
// secret scalars a and r derived from seed. It uses only this
// package's scalar and point arithmetic.
func (c torsionCase) sign(seed, msg []byte) (ed25519.PublicKey, []byte) {
	derive := func(label byte) scalar {
		h := sha512.New()
		h.Write([]byte{label})
		h.Write(seed)
		var wide [64]byte
		h.Sum(wide[:0])
		var s scalar
		return *s.setBytesWide(&wide)
	}
	a, r := derive('a'), derive('r')
	if c.zeroA {
		a = scalar{}
	}
	if c.zeroR {
		r = scalar{}
	}
	ts := smallOrder()
	A := mulBase(&a)
	A.add(&A, &ts[c.tA])
	R := mulBase(&r)
	R.add(&R, &ts[c.tR])
	pub, rEnc := encodePoint(&A), encodePoint(&R)
	if c.looseA {
		looseEncoding(&pub)
	}
	if c.looseR {
		looseEncoding(&rEnc)
	}

	h := sha512.New()
	h.Write(rEnc[:])
	h.Write(pub[:])
	h.Write(msg)
	var wide [64]byte
	h.Sum(wide[:0])
	var k, s scalar
	k.setBytesWide(&wide)
	s.mul(&k, &a)
	s.add(&s, &r)
	sEnc := scalarBytes(&s)
	return pub[:], append(rEnc[:], sEnc[:]...)
}

// checkVerifyOne fails t unless VerifyOne on a fresh and a warm
// Verifier, and Verify, all return crypto/ed25519.Verify's verdict (or
// false where the standard library would panic on the key length). It
// returns that verdict.
func checkVerifyOne(t *testing.T, warm *Verifier, pub ed25519.PublicKey, msg, sig []byte) bool {
	t.Helper()
	want := len(pub) == ed25519.PublicKeySize && ed25519.Verify(pub, msg, sig)
	if got := NewVerifier().VerifyOne(pub, msg, sig); got != want {
		t.Fatalf("VerifyOne (cold) %v, crypto/ed25519 %v (pub %x sig %x msg %x)", got, want, pub, sig, msg)
	}
	if got := warm.VerifyOne(pub, msg, sig); got != want {
		t.Fatalf("VerifyOne (warm) %v, crypto/ed25519 %v (pub %x sig %x msg %x)", got, want, pub, sig, msg)
	}
	if got := Verify(pub, msg, sig); got != want {
		t.Fatalf("Verify %v, crypto/ed25519 %v (pub %x sig %x msg %x)", got, want, pub, sig, msg)
	}
	return want
}

// TestVerifyOneTorsion runs the torsion generator over every pair of
// small-order components, with and without [a]B and loose encodings,
// and requires VerifyOne to agree with crypto/ed25519 on each — and both
// verdicts to occur, so the generator covers accept and reject cases.
func TestVerifyOneTorsion(t *testing.T) {
	warm := NewVerifier()
	verdicts := map[bool]int{}
	for shape := 0; shape < 256; shape++ {
		for i := 0; i < 4; i++ {
			c := torsionShape(uint8(shape), uint8(i<<6))
			msg := []byte{byte(shape), byte(i)}
			pub, sig := c.sign(msg, msg)
			verdicts[checkVerifyOne(t, warm, pub, msg, sig)]++
		}
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Fatalf("torsion generator verdicts %v: want both accepts and rejects", verdicts)
	}
}

// TestIdentityKeyVectors signs under the identity key written two ways
// crypto/ed25519 accepts but the canonical encoding (y = 1) is not: y =
// 1 + p, and y = 1 with the sign bit set. With R = [s]B the signature
// holds under both equations, so the standard library, VerifyOne and a
// batch window (alone and beside honest signatures) must all accept.
func TestIdentityKeyVectors(t *testing.T) {
	var nonReduced, signed [32]byte
	nonReduced[0] = 0xee // 1 + p = 2^255 − 18
	for i := 1; i < 31; i++ {
		nonReduced[i] = 0xff
	}
	nonReduced[31] = 0x7f
	signed[0], signed[31] = 1, 0x80
	pubs, msgs, sigs := sweepWindow(3, 3)
	for _, enc := range [][32]byte{nonReduced, signed} {
		pub := ed25519.PublicKey(enc[:])
		for i := 0; i < 4; i++ {
			var wide [64]byte
			wide[0] = byte(i + 1)
			wide[40] = byte(i)
			var s scalar
			s.setBytesWide(&wide)
			R := mulBase(&s)
			rEnc, sEnc := encodePoint(&R), scalarBytes(&s)
			sig := append(rEnc[:], sEnc[:]...)
			msg := []byte{byte(i)}
			if !checkVerifyOne(t, NewVerifier(), pub, msg, sig) {
				t.Fatalf("key %x: crypto/ed25519 rejected the identity-key vector", enc)
			}
			v := NewVerifier()
			v.Add(pub, msg, sig)
			if !v.Verify() {
				t.Fatalf("key %x: batch of one rejected the identity-key vector", enc)
			}
			v.Reset()
			for j := range sigs {
				v.Add(pubs[j], msgs[j], sigs[j])
			}
			v.Add(pub, msg, sig)
			if !v.Verify() {
				t.Fatalf("key %x: batch window rejected the identity-key vector", enc)
			}
		}
	}
}

// TestNonCanonicalR signs with R = T, a small-order point, written in a
// non-canonical form crypto/ed25519 would decode (y + p for y < 19, or
// the sign bit on x = 0). The standard library compares R byte for byte
// with a canonical encoding, so it rejects every such signature, and
// VerifyOne and the batch equation must too — the cofactored batch would
// accept it if R were decoded as loosely as a key.
func TestNonCanonicalR(t *testing.T) {
	rewritten := 0
	for tR := 0; tR < 8; tR++ {
		msg := []byte{byte(tR)}
		c := torsionCase{tR: tR, zeroR: true, looseR: true}
		pub, sig := c.sign(msg, msg)
		canon := c
		canon.looseR = false
		if _, twin := canon.sign(msg, msg); [32]byte(twin[:32]) == [32]byte(sig[:32]) {
			continue // no non-canonical form of this R
		}
		rewritten++
		if checkVerifyOne(t, NewVerifier(), pub, msg, sig) {
			t.Fatalf("T_%d: crypto/ed25519 accepted a non-canonical R", tR)
		}
		v := NewVerifier()
		v.Add(pub, msg, sig)
		if v.Verify() {
			t.Fatalf("T_%d: batch accepted a non-canonical R", tR)
		}
	}
	if rewritten < 4 {
		t.Fatalf("only %d small-order R values had a non-canonical form, want 4", rewritten)
	}
}

// TestVerifyOneKeepsBatch interleaves VerifyOne calls with a batch in
// progress, including keys that evict cache entries: the batch's keys
// are in use and must survive, so the window still verifies.
func TestVerifyOneKeepsBatch(t *testing.T) {
	pubs, msgs, sigs := sweepWindow(6, 3)
	others, omsgs, osigs := sweepWindow(keyCacheSize+8, keyCacheSize+8)
	v := NewVerifier()
	for i := range sigs {
		v.Add(pubs[i], msgs[i], sigs[i])
		for j := range osigs {
			if !v.VerifyOne(others[j], omsgs[j], osigs[j]) {
				t.Fatalf("honest signature %d rejected mid-batch", j)
			}
		}
	}
	if !v.Verify() {
		t.Fatal("batch rejected after interleaved VerifyOne calls")
	}
}

// TestVerifyZeroAllocWarm pins the steady state of single verification:
// once the key is cached, VerifyOne and the pooled Verify allocate
// nothing, for accepted and rejected signatures alike. The pooled check
// is skipped under -race, where sync.Pool drops items on purpose.
func TestVerifyZeroAllocWarm(t *testing.T) {
	pubs, msgs, sigs := sweepWindow(2, 2)
	bad := append([]byte(nil), sigs[1]...)
	bad[7] ^= 1
	v := NewVerifier()
	run := func() {
		if !v.VerifyOne(pubs[0], msgs[0], sigs[0]) || v.VerifyOne(pubs[1], msgs[1], bad) {
			t.Fatal("VerifyOne verdict wrong")
		}
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("warm VerifyOne: %v allocs per run, want 0", allocs)
	}
	pooled := func() {
		if !Verify(pubs[0], msgs[0], sigs[0]) || Verify(pubs[1], msgs[1], bad) {
			t.Fatal("Verify verdict wrong")
		}
	}
	pooled()
	if raceEnabled {
		return
	}
	if allocs := testing.AllocsPerRun(20, pooled); allocs != 0 {
		t.Fatalf("warm Verify: %v allocs per run, want 0", allocs)
	}
}

// TestVerifyConcurrent calls the pooled Verify from several goroutines
// over shared keys; run it under -race.
func TestVerifyConcurrent(t *testing.T) {
	pubs, msgs, sigs := sweepWindow(8, 3)
	bad := append([]byte(nil), sigs[5]...)
	bad[40] ^= 4
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i := range sigs {
					if !Verify(pubs[i], msgs[i], sigs[i]) {
						t.Errorf("goroutine %d: honest signature %d rejected", g, i)
					}
				}
				if Verify(pubs[5], msgs[5], bad) {
					t.Errorf("goroutine %d: corrupted signature accepted", g)
				}
			}
		}()
	}
	wg.Wait()
}
