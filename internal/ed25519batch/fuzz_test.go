package ed25519batch

import (
	"crypto/ed25519"
	"math/bits"
	"testing"
)

// fuzzKeys are the honest signers of the fuzzed windows, from fixed seeds
// so the corpus replays the same windows.
var fuzzKeys = func() []ed25519.PrivateKey {
	keys := make([]ed25519.PrivateKey, 4)
	for i := range keys {
		seed := make([]byte, ed25519.SeedSize)
		seed[0] = byte(i + 1)
		keys[i] = ed25519.NewKeyFromSeed(seed)
	}
	return keys
}()

// warmVerifier is shared by every fuzz input, so its key cache holds the
// honest keys (and whatever mutated keys decoded) across inputs.
var warmVerifier = NewVerifier()

// Window mutations applied by FuzzBatchVsStdlib to one item.
const (
	mutNone = iota
	mutFlipR
	mutFlipS
	mutFlipMessage
	mutFlipKey
	mutSPlusL      // s' = s + L: same residue, non-canonical encoding
	mutNonCanonR   // R's y replaced by a value in [p, 2^255)
	mutNonCanonKey // the public key's y replaced by a value in [p, 2^255)
	mutCount
)

// nonCanonicalY writes y = p + k (k < 19, so y < 2^255) into enc, keeping
// enc's sign bit. crypto/ed25519 rejects such encodings outright.
func nonCanonicalY(enc []byte, k byte) {
	sign := enc[31] & 0x80
	enc[0] = 0xed + k%19
	for i := 1; i < 31; i++ {
		enc[i] = 0xff
	}
	enc[31] = 0x7f | sign
}

// FuzzBatchVsStdlib checks that a batch verdict equals the AND of
// crypto/ed25519.Verify over the window, for honest windows of 1-8
// signatures under 1-4 keys with one item mutated: byte flips in R, s,
// the message or the public key, s >= L, and non-canonical y in R or the
// key. It runs each window through a fresh Verifier (cold key cache) and
// a shared one (warm key cache).
//
// Crafted small-order (torsion) inputs are deliberately not generated:
// the batch equation is cofactored and crypto/ed25519 is not, so a
// signature built with a small-order component can pass the batch and
// fail per item. That divergence is known and tracked (ROADMAP item 4);
// callers keep the standard library as the ground truth for every
// rejection. Random byte flips reach such inputs with negligible
// probability.
func FuzzBatchVsStdlib(f *testing.F) {
	f.Add(uint8(4), uint8(4), uint8(mutNone), uint8(0), uint8(0), []byte("seed"))
	f.Fuzz(func(t *testing.T, n, nkeys, mut, at, pos uint8, msg []byte) {
		size := 1 + int(n)%8
		signers := 1 + int(nkeys)%len(fuzzKeys)
		pubs := make([]ed25519.PublicKey, size)
		msgs := make([][]byte, size)
		sigs := make([][]byte, size)
		for i := range sigs {
			priv := fuzzKeys[i%signers]
			pubs[i] = priv.Public().(ed25519.PublicKey)
			msgs[i] = append(append([]byte(nil), msg...), byte(i))
			sigs[i] = ed25519.Sign(priv, msgs[i])
		}

		victim := int(at) % size
		sig := sigs[victim]
		pub := append(ed25519.PublicKey(nil), pubs[victim]...)
		bit := byte(1) << (pos % 8)
		switch int(mut) % mutCount {
		case mutFlipR:
			sig[pos%32] ^= bit
		case mutFlipS:
			sig[32+pos%32] ^= bit
		case mutFlipMessage:
			msgs[victim] = append(msgs[victim], 0)
			msgs[victim][int(pos)%len(msgs[victim])] ^= bit
		case mutFlipKey:
			pub[pos%32] ^= bit
		case mutSPlusL:
			var s scalar
			s.setCanonicalBytes(sig[32:])
			var carry uint64
			for i := range s { // s + L < 2^254: no carry out
				s[i], carry = bits.Add64(s[i], lWords[i], carry)
			}
			for i, w := range s {
				for j := 0; j < 8; j++ {
					sig[32+i*8+j] = byte(w >> (8 * uint(j)))
				}
			}
		case mutNonCanonR:
			nonCanonicalY(sig[:32], pos)
		case mutNonCanonKey:
			nonCanonicalY(pub, pos)
		}
		pubs[victim] = pub

		want := true
		for i := range sigs {
			want = want && ed25519.Verify(pubs[i], msgs[i], sigs[i])
		}
		for _, v := range []*Verifier{NewVerifier(), warmVerifier} {
			v.Reset()
			for i := range sigs {
				v.Add(pubs[i], msgs[i], sigs[i])
			}
			if got := v.Verify(); got != want {
				t.Fatalf("batch %v, AND of crypto/ed25519.Verify %v (size %d, signers %d, mutation %d on item %d)",
					got, want, size, signers, int(mut)%mutCount, victim)
			}
		}
	})
}

// TestVerifierZeroAllocWarm pins the steady state of a reused Verifier:
// once its buffers have grown and its key cache holds the window's keys,
// Reset, Add and Verify allocate nothing.
func TestVerifierZeroAllocWarm(t *testing.T) {
	pubs, msgs, sigs := sweepWindow(6, 3)
	v := NewVerifier()
	run := func() {
		v.Reset()
		for i := range sigs {
			v.Add(pubs[i], msgs[i], sigs[i])
		}
		if !v.Verify() {
			t.Fatal("honest window rejected")
		}
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("warm Reset/Add/Verify: %v allocs per window, want 0", allocs)
	}
}

// TestKeyCacheOverflow runs batches with more distinct keys than the
// cache holds: keys past the bound are prepared outside the cache,
// entries in use by the current batch are never evicted, and the cache
// stays at its bound across batches.
func TestKeyCacheOverflow(t *testing.T) {
	pubs, msgs, sigs := sweepWindow(keyCacheSize+20, keyCacheSize+20)
	v := NewVerifier()
	for round := 0; round < 3; round++ {
		v.Reset()
		// Rotate the window so each round evicts and re-decodes keys.
		for i := range sigs {
			j := (i + round*7) % len(sigs)
			v.Add(pubs[j], msgs[j], sigs[j])
		}
		if !v.Verify() {
			t.Fatalf("round %d: honest window of %d keys rejected", round, len(sigs))
		}
		if len(v.keys.ring) != keyCacheSize || len(v.keys.index) != keyCacheSize {
			t.Fatalf("round %d: cache holds %d entries (%d indexed), bound %d",
				round, len(v.keys.ring), len(v.keys.index), keyCacheSize)
		}
	}
	v.Reset()
	for i := range sigs {
		m := msgs[i]
		if i == len(sigs)-1 {
			m = append([]byte{1}, m...)
		}
		v.Add(pubs[i], m, sigs[i])
	}
	if v.Verify() {
		t.Fatal("window with one wrong message accepted")
	}
}
