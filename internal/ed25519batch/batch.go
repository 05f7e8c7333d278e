package ed25519batch

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha512"
	"hash"
)

// Verifier accumulates Ed25519 (public key, message, signature) triples
// and checks them with a single cofactored batch equation. A Verifier is
// reusable: after Verify, call Reset and add the next batch — all
// internal buffers (point tables, NAF scratch, hash state) are retained,
// so steady-state batches allocate only when they outgrow every previous
// batch. Decompressed public keys and their tables are cached across
// batches (up to keyCacheSize keys), so a key costs a decompression and
// table build once per Verifier, not once per batch; VerifyOne draws on
// the same cache. Not safe for concurrent use.
//
// Semantics: Verify returns true only if every added triple is valid
// under the cofactored verification equation. It returns false if any
// triple is invalid, malformed (wrong key/signature length, a public key
// that is not a curve point, a non-canonical R or s), or if randomness
// is unavailable — callers are expected to attribute failures by
// re-checking items one at a time with VerifyOne.
//
// Agreement with crypto/ed25519: public keys decode the way the standard
// library decodes them (a non-reduced y and x = 0 with the sign bit set
// are accepted), and the encodings it rejects outright — a non-canonical
// R, s >= L — are rejected here too. For honestly generated signatures
// the cofactored and cofactorless equations always agree. They can
// disagree only on adversarially crafted signatures involving
// small-order components, where the batch equation may accept what
// per-item verification rejects. Callers that must match the standard
// library confirm batch *failures* per item (which this API forces
// anyway) and may additionally spot-check batch successes; see
// internal/evidence for the policy this repo uses.
type Verifier struct {
	bad   bool
	items []batchItem

	keys      keyCache
	batchKeys []*keyEntry // distinct keys of this batch, in first-use order
	gen       uint64      // batch generation, bumped by Reset

	h    hash.Hash
	hsum [64]byte
	zbuf []byte

	aScalars []scalar
	rTables  [][8]cachedPoint
	terms    []msmTerm
}

type batchItem struct {
	s    scalar // signature scalar, canonical
	hRAM scalar // SHA-512(R ‖ A ‖ M) mod L
	r    point  // signature point R
	aIdx int    // index into batchKeys (public keys are merged)
}

// keyCacheSize bounds the decompressed public keys a Verifier keeps
// across batches. Attestation windows are signed by a handful of
// switch keys, so the bound is never reached in steady state; past it
// the oldest entry not used by the current batch is replaced.
const keyCacheSize = 64

// keyEntry is a decompressed public key A prepared for the batch
// equation: the odd multiples of A and of [2^128]A, the tables of the
// two 128-bit halves of its merged scalar.
type keyEntry struct {
	enc    [32]byte
	gen    uint64 // batch generation that last referenced the entry
	idx    int    // index into batchKeys during that generation
	lo, hi [8]cachedPoint
}

// keyCache maps 32-byte public-key encodings to their prepared tables.
// Only successful decodes are stored: a malformed key poisons its batch
// and is decoded again if it comes back.
type keyCache struct {
	index map[[32]byte]*keyEntry
	ring  []*keyEntry // insertion order, len <= keyCacheSize
	next  int         // ring position of the next eviction candidate
}

// lookup returns the prepared entry for pub (32 bytes), decoding and
// caching it on a miss, or false if pub is not a valid point encoding.
// Entries used by the current batch (gen) are never evicted, so a batch
// with more distinct keys than the bound prepares the rest in entries
// of its own, outside the cache.
func (c *keyCache) lookup(pub []byte, gen uint64) (*keyEntry, bool) {
	enc := [32]byte(pub)
	if e, ok := c.index[enc]; ok {
		return e, true
	}
	var a point
	if !a.setBytes(pub) {
		return nil, false
	}
	e := c.slot(gen)
	if e == nil {
		e = new(keyEntry)
	} else {
		c.index[enc] = e
	}
	e.enc = enc
	e.gen = 0
	oddMultiples(e.lo[:], &a)
	var a128 point
	oddMultiples(e.hi[:], a128.mulPow2(&a, 128))
	return e, true
}

// slot returns a cache entry to (re)fill, or nil if every entry is in
// use by batch generation gen.
func (c *keyCache) slot(gen uint64) *keyEntry {
	if len(c.ring) < keyCacheSize {
		e := new(keyEntry)
		c.ring = append(c.ring, e)
		return e
	}
	for range c.ring {
		e := c.ring[c.next]
		c.next = (c.next + 1) % len(c.ring)
		if e.gen != gen {
			delete(c.index, e.enc)
			return e
		}
	}
	return nil
}

// NewVerifier returns an empty batch verifier.
func NewVerifier() *Verifier {
	return &Verifier{
		keys: keyCache{index: make(map[[32]byte]*keyEntry)},
		gen:  1,
		h:    sha512.New(),
	}
}

// Reset clears the batch while keeping capacity for reuse. The key
// cache survives: a key seen by an earlier batch is not decompressed
// again.
func (v *Verifier) Reset() {
	v.bad = false
	v.items = v.items[:0]
	v.batchKeys = v.batchKeys[:0]
	v.gen++
}

// Len returns the number of triples added since the last Reset.
func (v *Verifier) Len() int { return len(v.items) }

// Add queues one triple for verification. Malformed inputs poison the
// batch (Verify will return false); they are not silently skipped.
func (v *Verifier) Add(pub ed25519.PublicKey, message, sig []byte) {
	if len(pub) != ed25519.PublicKeySize || len(sig) != ed25519.SignatureSize {
		v.bad = true
		return
	}
	var item batchItem
	if !item.s.setCanonicalBytes(sig[32:]) {
		v.bad = true
		return
	}
	if !item.r.setCanonicalBytes(sig[:32]) {
		v.bad = true
		return
	}
	key, ok := v.keys.lookup(pub, v.gen)
	if !ok {
		v.bad = true
		return
	}
	if key.gen != v.gen {
		key.gen = v.gen
		key.idx = len(v.batchKeys)
		v.batchKeys = append(v.batchKeys, key)
	}
	item.aIdx = key.idx

	v.h.Reset()
	v.h.Write(sig[:32])
	v.h.Write(pub)
	v.h.Write(message)
	v.h.Sum(v.hsum[:0])
	item.hRAM.setBytesWide(&v.hsum)

	v.items = append(v.items, item)
}

// Verify checks the whole batch:
//
//	[8]( [-Σ z_i·s_i]B + Σ [z_i]R_i + Σ [(Σ z_i·h_i)]A_j ) == identity
//
// with fresh 128-bit random blinders z_i. An empty batch verifies.
//
// Every scalar is brought below 2^128 so the shared doubling chain is
// 128 long, not 253: the B and A_j coefficients are split into 128-bit
// halves against [2^128]B (a static table) and [2^128]A_j (cached with
// the key), and the z_i are 128-bit already. That makes 2 + 2u + n
// terms for n signatures under u distinct keys.
func (v *Verifier) Verify() bool {
	if v.bad {
		return false
	}
	n := len(v.items)
	if n == 0 {
		return true
	}
	if cap(v.zbuf) < 16*n {
		v.zbuf = make([]byte, 16*n)
	}
	zbuf := v.zbuf[:16*n]
	if _, err := rand.Read(zbuf); err != nil {
		return false
	}

	u := len(v.batchKeys)
	total := 2 + 2*u + n
	if cap(v.terms) < total {
		v.terms = make([]msmTerm, total)
	}
	if cap(v.aScalars) < u {
		v.aScalars = make([]scalar, u)
	}
	if cap(v.rTables) < n {
		v.rTables = make([][8]cachedPoint, n)
	}
	terms := v.terms[:total]
	aScalars := v.aScalars[:u]
	rTables := v.rTables[:n]
	for i := range aScalars {
		aScalars[i] = scalar{}
	}

	top := -1
	var bScalar, z, zs, zh scalar
	for i := range v.items {
		it := &v.items[i]
		var z16 [16]byte
		copy(z16[:], zbuf[16*i:])
		// All-zero randomness would let an invalid item cancel out; force
		// the low byte odd instead of looping on the RNG.
		z16[0] |= 1
		z.setBytes16(&z16)

		zs.mul(&z, &it.s)
		bScalar.add(&bScalar, &zs)
		zh.mul(&z, &it.hRAM)
		aScalars[it.aIdx].add(&aScalars[it.aIdx], &zh)

		oddMultiples(rTables[i][:], &it.r)
		top = max(top, terms[2+2*u+i].setScalar(z[0], z[1], rTables[i][:]))
	}
	// B coefficient is negated: the equation moves [z·s]B to the left side.
	var zero scalar
	bScalar.sub(&zero, &bScalar)
	top = max(top, terms[0].setScalar(bScalar[0], bScalar[1], baseTable[:]))
	top = max(top, terms[1].setScalar(bScalar[2], bScalar[3], baseTable128[:]))
	for j, key := range v.batchKeys {
		a := &aScalars[j]
		top = max(top, terms[2+2*j].setScalar(a[0], a[1], key.lo[:]))
		top = max(top, terms[3+2*j].setScalar(a[2], a[3], key.hi[:]))
	}

	var sum projP2
	var c projP1xP1
	vartimeMultiscalar(&sum, terms, top)
	// Multiply by the cofactor 8 so small-order components cannot flip
	// the verdict for honest signatures.
	for i := 0; i < 3; i++ {
		sum.fromP1xP1(c.double(&sum))
	}
	return sum.isIdentity()
}

// VerifyBatch is a convenience wrapper: one-shot batch verification of
// parallel slices. Reusing a Verifier is cheaper on hot paths.
func VerifyBatch(pubs []ed25519.PublicKey, messages, sigs [][]byte) bool {
	if len(pubs) != len(messages) || len(pubs) != len(sigs) {
		return false
	}
	v := NewVerifier()
	for i := range pubs {
		v.Add(pubs[i], messages[i], sigs[i])
	}
	return v.Verify()
}
