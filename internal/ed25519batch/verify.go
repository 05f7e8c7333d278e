package ed25519batch

import (
	"crypto/ed25519"
	"sync"
)

// VerifyOne reports whether sig is a valid signature of message under
// pub, with crypto/ed25519.Verify's verdict on every input. It follows
// the standard library's cofactorless rules:
//
//   - pub must be 32 bytes and sig 64 bytes; other lengths return false
//     (the standard library panics on a bad key length);
//   - s = sig[32:] must be canonical (< L);
//   - A = pub decodes as crypto/ed25519 decodes it (see setBytes): a
//     non-reduced y and x = 0 with the sign bit set are accepted;
//   - k = SHA-512(R ‖ A ‖ M) mod L over the bytes as given;
//   - the signature holds iff the canonical encoding of [s]B − [k]A
//     equals sig[:32] byte for byte, so R is never decoded.
//
// A comes from the Verifier's key cache, with the tables of A and
// [2^128]A the batch equation uses, and B from the static tables, so a
// warm check is 4 terms under 128 shared doublings and one inversion,
// with no decompression. VerifyOne leaves a batch in progress intact and
// allocates nothing once pub is cached. Not safe for concurrent use; see
// Verify.
func (v *Verifier) VerifyOne(pub ed25519.PublicKey, message, sig []byte) bool {
	if len(pub) != ed25519.PublicKeySize || len(sig) != ed25519.SignatureSize {
		return false
	}
	var s scalar
	if !s.setCanonicalBytes(sig[32:]) {
		return false
	}
	key, ok := v.keys.lookup(pub, v.gen)
	if !ok {
		return false
	}
	v.h.Reset()
	v.h.Write(sig[:32])
	v.h.Write(pub)
	v.h.Write(message)
	v.h.Sum(v.hsum[:0])
	var k scalar
	k.setBytesWide(&v.hsum)

	// −[k]A negates k's digits, not k mod L: [L−k]A differs from −[k]A
	// when A has a small-order component, and the standard library
	// computes the latter.
	var terms [4]msmTerm
	top := terms[0].setScalar(s[0], s[1], baseTable[:])
	top = max(top, terms[1].setScalar(s[2], s[3], baseTable128[:]))
	top = max(top, terms[2].setScalar(k[0], k[1], key.lo[:]))
	top = max(top, terms[3].setScalar(k[2], k[3], key.hi[:]))
	terms[2].negate()
	terms[3].negate()

	var r projP2
	var enc [32]byte
	vartimeMultiscalar(&r, terms[:], top).toBytes(&enc)
	return enc == [32]byte(sig[:32])
}

// verifiers backs Verify: each holds its own key cache, so keys stay
// decompressed across calls without any other package-level state.
var verifiers = sync.Pool{New: func() any { return NewVerifier() }}

// Verify is VerifyOne on a pooled Verifier: it reports whether sig is a
// valid signature of message under pub, with crypto/ed25519.Verify's
// verdict, and is safe for concurrent use.
func Verify(pub ed25519.PublicKey, message, sig []byte) bool {
	v := verifiers.Get().(*Verifier)
	ok := v.VerifyOne(pub, message, sig)
	verifiers.Put(v)
	return ok
}
