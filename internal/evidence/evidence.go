// Package evidence defines the evidence values produced and consumed by
// remote attestation in the PERA reproduction, together with the paper's
// Fig. 4 design-space controls: evidence Detail levels with associated
// Inertia, Sampling frequency, and Composition mode.
//
// Evidence is a tree, mirroring the result structure of Copland evaluation
// (Helble et al., "Flexible Mechanisms for Remote Attestation"):
//
//	E ::= empty | nonce(n) | measurement(m, t, place, value)
//	    | hash(E) | sig_place(E) | seq(E1, E2) | par(E1, E2)
//
// Hashing collapses a subtree to its digest (the paper's # operator);
// signing wraps a subtree with a platform signature (the ! operator); seq
// and par record how sub-evidence was composed. The tree serializes to a
// canonical byte form (codec.go) over which digests and signatures are
// computed, so evidence is independently appraisable after any number of
// network hops.
package evidence

import (
	"crypto/ed25519"
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
	"sync"

	"pera/internal/rot"
)

// Kind discriminates evidence tree nodes.
type Kind uint8

// Evidence node kinds.
const (
	KindEmpty Kind = iota
	KindNonce
	KindMeasurement
	KindHash
	KindSig
	KindSeq
	KindPar
)

var kindNames = [...]string{"empty", "nonce", "measurement", "hash", "sig", "seq", "par"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Evidence is one node of an evidence tree. Exactly the fields relevant to
// its Kind are populated. Evidence values are treated as immutable once
// built; helpers return new nodes rather than mutating.
type Evidence struct {
	Kind Kind

	// KindNonce
	Nonce []byte

	// KindMeasurement
	Measurer string // measuring principal (e.g. "av", "pera-sw1")
	Target   string // measured object (e.g. "bmon", "firewall_v5.p4")
	Place    string // where the measurement ran (e.g. "ks", "sw1")
	Detail   Detail // what class of state was measured (Fig 4)
	Value    rot.Digest
	Claims   []byte // optional raw claim payload (e.g. serialized quote)

	// KindHash
	Digest rot.Digest

	// KindSig
	Signer    string
	Signature []byte

	// KindHash wraps nothing further (the subtree is collapsed);
	// KindSig, KindSeq and KindPar carry children.
	Left  *Evidence // sig/seq/par: first (or only) child
	Right *Evidence // seq/par: second child
}

// Errors reported by evidence operations.
var (
	ErrBadSignature = errors.New("evidence: signature verification failed")
	ErrUnknownKey   = errors.New("evidence: no key known for signer")
	ErrMalformed    = errors.New("evidence: malformed tree")
)

// Empty returns the empty evidence value.
func Empty() *Evidence { return &Evidence{Kind: KindEmpty} }

// Nonce returns nonce evidence binding n.
func Nonce(n []byte) *Evidence {
	return &Evidence{Kind: KindNonce, Nonce: append([]byte(nil), n...)}
}

// Measurement builds measurement evidence: measurer measured target at
// place, observing value. claims may carry a serialized quote or other raw
// appraisal input and may be nil.
func Measurement(measurer, target, place string, detail Detail, value rot.Digest, claims []byte) *Evidence {
	return &Evidence{
		Kind:     KindMeasurement,
		Measurer: measurer,
		Target:   target,
		Place:    place,
		Detail:   detail,
		Value:    value,
		Claims:   append([]byte(nil), claims...),
	}
}

// Hash collapses e to its digest — the Copland # operator. The resulting
// node carries only the digest of e's canonical encoding.
func Hash(e *Evidence) *Evidence {
	return &Evidence{Kind: KindHash, Digest: DigestOf(e)}
}

// Seq composes evidence gathered sequentially (left then right).
func Seq(l, r *Evidence) *Evidence { return &Evidence{Kind: KindSeq, Left: l, Right: r} }

// Par composes evidence gathered in parallel.
func Par(l, r *Evidence) *Evidence { return &Evidence{Kind: KindPar, Left: l, Right: r} }

// SeqAll folds a slice into a left-leaning Seq chain. An empty slice
// yields Empty; a single element is returned as-is.
func SeqAll(es ...*Evidence) *Evidence {
	switch len(es) {
	case 0:
		return Empty()
	case 1:
		return es[0]
	}
	out := es[0]
	for _, e := range es[1:] {
		out = Seq(out, e)
	}
	return out
}

// encBufPool recycles encode scratch buffers across DigestOf and
// signature-message construction; the encodings are consumed before the
// buffer is returned, so nothing retains them.
var encBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 2048); return &b },
}

// DigestOf returns the SHA-256 digest of e's canonical encoding.
func DigestOf(e *Evidence) rot.Digest {
	bp := encBufPool.Get().(*[]byte)
	b := AppendEncode((*bp)[:0], e)
	d := sha256.Sum256(b)
	*bp = b[:0]
	encBufPool.Put(bp)
	return d
}

// Signer abstracts the signing capability evidence needs — satisfied by
// *rot.RoT and by host attester identities.
type Signer interface {
	Name() string
	Sign(message []byte) []byte
}

// Sign wraps e in a signature by s — the Copland ! operator. The signature
// covers e's canonical encoding prefixed by the signer name, so a signature
// cannot be transplanted between principals.
func Sign(s Signer, e *Evidence) *Evidence {
	bp := encBufPool.Get().(*[]byte)
	msg := AppendSigMessage((*bp)[:0], s.Name(), e)
	sig := s.Sign(msg)
	*bp = msg[:0]
	encBufPool.Put(bp)
	return &Evidence{Kind: KindSig, Signer: s.Name(), Signature: sig, Left: e}
}

const sigDomain = "PERA-EVSIG\x00"

// AppendSigMessage appends the exact byte string a signature over e by
// signer covers — domain tag, signer name, NUL, canonical encoding — to
// buf in a single pass, and returns the extended slice. It is the
// allocation-free form of the old two-buffer sigMessage construction.
func AppendSigMessage(buf []byte, signer string, e *Evidence) []byte {
	buf = append(buf, sigDomain...)
	buf = append(buf, signer...)
	buf = append(buf, 0)
	return appendEvidence(buf, e)
}

// SigMessageSize returns len(AppendSigMessage(nil, signer, e)) without
// building it, so callers can size a buffer exactly.
func SigMessageSize(signer string, e *Evidence) int {
	return len(sigDomain) + len(signer) + 1 + EncodedSize(e)
}

func sigMessage(signer string, e *Evidence) []byte {
	b := make([]byte, 0, SigMessageSize(signer, e))
	return AppendSigMessage(b, signer, e)
}

// KeyResolver maps a signer name to its verification key. Appraisers
// implement this against their AIK certificate store.
type KeyResolver interface {
	KeyFor(signer string) (ed25519.PublicKey, bool)
}

// KeyMap is a KeyResolver backed by a map.
type KeyMap map[string]ed25519.PublicKey

// KeyFor implements KeyResolver.
func (m KeyMap) KeyFor(signer string) (ed25519.PublicKey, bool) {
	k, ok := m[signer]
	return k, ok
}

// VerifySignatures walks e and checks every signature node against keys.
// It returns the number of signatures checked. A single bad or unkeyed
// signature fails the whole tree: path evidence is only as strong as its
// weakest link.
func VerifySignatures(e *Evidence, keys KeyResolver) (int, error) {
	return VerifySignaturesMemo(e, keys, nil)
}

// VerifySignaturesMemo is VerifySignatures with an optional verification
// memo: signature nodes whose (key, message, signature) triple was checked
// before cost one hash lookup instead of one Ed25519 verification. A nil memo
// verifies everything in full.
func VerifySignaturesMemo(e *Evidence, keys KeyResolver, memo *VerifyMemo) (int, error) {
	if e == nil {
		return 0, ErrMalformed
	}
	// One scratch buffer serves every signature node in the walk; on memo
	// hits the whole traversal allocates nothing.
	bp := encBufPool.Get().(*[]byte)
	defer func() {
		encBufPool.Put(bp)
	}()
	n := 0
	var walk func(*Evidence) error
	walk = func(ev *Evidence) error {
		if ev == nil {
			return ErrMalformed
		}
		switch ev.Kind {
		case KindEmpty, KindNonce, KindMeasurement, KindHash:
			return nil
		case KindSig:
			pub, ok := keys.KeyFor(ev.Signer)
			if !ok {
				return fmt.Errorf("%w: %q", ErrUnknownKey, ev.Signer)
			}
			msg := AppendSigMessage((*bp)[:0], ev.Signer, ev.Left)
			*bp = msg[:0]
			if !memo.Verify(pub, msg, ev.Signature) {
				return fmt.Errorf("%w: signer %q", ErrBadSignature, ev.Signer)
			}
			n++
			return walk(ev.Left)
		case KindSeq, KindPar:
			if err := walk(ev.Left); err != nil {
				return err
			}
			return walk(ev.Right)
		default:
			return fmt.Errorf("%w: kind %v", ErrMalformed, ev.Kind)
		}
	}
	if err := walk(e); err != nil {
		return n, err
	}
	return n, nil
}

// Measurements returns all measurement nodes in e, left-to-right. This is
// the appraiser's view of "what was claimed along the path".
func Measurements(e *Evidence) []*Evidence {
	var out []*Evidence
	var walk func(*Evidence)
	walk = func(ev *Evidence) {
		if ev == nil {
			return
		}
		switch ev.Kind {
		case KindMeasurement:
			out = append(out, ev)
		case KindSig:
			walk(ev.Left)
		case KindSeq, KindPar:
			walk(ev.Left)
			walk(ev.Right)
		}
	}
	walk(e)
	return out
}

// WalkMeasurements visits every measurement node in e, left-to-right,
// without building a slice; fn returning false stops the walk. The
// appraisal hot path uses this in place of Measurements.
func WalkMeasurements(e *Evidence, fn func(*Evidence) bool) {
	var walk func(*Evidence) bool
	walk = func(ev *Evidence) bool {
		if ev == nil {
			return true
		}
		switch ev.Kind {
		case KindMeasurement:
			return fn(ev)
		case KindSig:
			return walk(ev.Left)
		case KindSeq, KindPar:
			return walk(ev.Left) && walk(ev.Right)
		}
		return true
	}
	walk(e)
}

// CountMeasurements returns the number of measurement nodes in e.
func CountMeasurements(e *Evidence) int {
	n := 0
	WalkMeasurements(e, func(*Evidence) bool { n++; return true })
	return n
}

// HasNonce reports whether nonce appears as a nonce node in e, without
// materializing the Nonces slice.
func HasNonce(e *Evidence, nonce []byte) bool {
	found := false
	var walk func(*Evidence)
	walk = func(ev *Evidence) {
		if ev == nil || found {
			return
		}
		switch ev.Kind {
		case KindNonce:
			if string(ev.Nonce) == string(nonce) {
				found = true
			}
		case KindSig:
			walk(ev.Left)
		case KindSeq, KindPar:
			walk(ev.Left)
			walk(ev.Right)
		}
	}
	walk(e)
	return found
}

// FirstNonce returns the first nonce node's value in e, or nil.
func FirstNonce(e *Evidence) []byte {
	var out []byte
	var walk func(*Evidence)
	walk = func(ev *Evidence) {
		if ev == nil || out != nil {
			return
		}
		switch ev.Kind {
		case KindNonce:
			out = ev.Nonce
		case KindSig:
			walk(ev.Left)
		case KindSeq, KindPar:
			walk(ev.Left)
			walk(ev.Right)
		}
	}
	walk(e)
	return out
}

// Hashes returns all hash-commitment digests appearing in e,
// left-to-right — what an appraiser checks against expected evidence
// digests when attesters collapse their measurements with # before
// signing (expression (3) of the paper).
func Hashes(e *Evidence) []rot.Digest {
	var out []rot.Digest
	var walk func(*Evidence)
	walk = func(ev *Evidence) {
		if ev == nil {
			return
		}
		switch ev.Kind {
		case KindHash:
			out = append(out, ev.Digest)
		case KindSig:
			walk(ev.Left)
		case KindSeq, KindPar:
			walk(ev.Left)
			walk(ev.Right)
		}
	}
	walk(e)
	return out
}

// Nonces returns all nonce values appearing in e.
func Nonces(e *Evidence) [][]byte {
	var out [][]byte
	var walk func(*Evidence)
	walk = func(ev *Evidence) {
		if ev == nil {
			return
		}
		switch ev.Kind {
		case KindNonce:
			out = append(out, ev.Nonce)
		case KindSig:
			walk(ev.Left)
		case KindSeq, KindPar:
			walk(ev.Left)
			walk(ev.Right)
		}
	}
	walk(e)
	return out
}

// Signers returns the distinct signer names in e, in first-seen order.
// For path evidence this is the set of attesting elements traversed.
func Signers(e *Evidence) []string {
	var out []string
	seen := map[string]bool{}
	var walk func(*Evidence)
	walk = func(ev *Evidence) {
		if ev == nil {
			return
		}
		switch ev.Kind {
		case KindSig:
			if !seen[ev.Signer] {
				seen[ev.Signer] = true
				out = append(out, ev.Signer)
			}
			walk(ev.Left)
		case KindSeq, KindPar:
			walk(ev.Left)
			walk(ev.Right)
		}
	}
	walk(e)
	return out
}

// Size returns the number of nodes in the tree.
func Size(e *Evidence) int {
	if e == nil {
		return 0
	}
	n := 1
	switch e.Kind {
	case KindSig:
		n += Size(e.Left)
	case KindSeq, KindPar:
		n += Size(e.Left) + Size(e.Right)
	}
	return n
}

// Depth returns the height of the tree; Empty has depth 1.
func Depth(e *Evidence) int {
	if e == nil {
		return 0
	}
	switch e.Kind {
	case KindSig:
		return 1 + Depth(e.Left)
	case KindSeq, KindPar:
		l, r := Depth(e.Left), Depth(e.Right)
		if l > r {
			return 1 + l
		}
		return 1 + r
	default:
		return 1
	}
}

// Validate checks structural well-formedness: children present exactly
// where the kind requires them.
func Validate(e *Evidence) error {
	if e == nil {
		return ErrMalformed
	}
	switch e.Kind {
	case KindEmpty, KindNonce, KindMeasurement, KindHash:
		if e.Left != nil || e.Right != nil {
			return fmt.Errorf("%w: leaf kind %v has children", ErrMalformed, e.Kind)
		}
		return nil
	case KindSig:
		if e.Left == nil || e.Right != nil {
			return fmt.Errorf("%w: sig needs exactly one child", ErrMalformed)
		}
		return Validate(e.Left)
	case KindSeq, KindPar:
		if e.Left == nil || e.Right == nil {
			return fmt.Errorf("%w: %v needs two children", ErrMalformed, e.Kind)
		}
		if err := Validate(e.Left); err != nil {
			return err
		}
		return Validate(e.Right)
	default:
		return fmt.Errorf("%w: unknown kind %v", ErrMalformed, e.Kind)
	}
}

// String renders the tree in a compact Copland-like notation for logs and
// debugging, e.g. `sig[sw1](seq(msmt[attest sw1/prog], nonce))`.
func (e *Evidence) String() string {
	var b strings.Builder
	writeString(&b, e)
	return b.String()
}

func writeString(b *strings.Builder, e *Evidence) {
	if e == nil {
		b.WriteString("<nil>")
		return
	}
	switch e.Kind {
	case KindEmpty:
		b.WriteString("empty")
	case KindNonce:
		fmt.Fprintf(b, "nonce(%x)", shortBytes(e.Nonce))
	case KindMeasurement:
		fmt.Fprintf(b, "msmt[%s %s@%s %s=%v]", e.Measurer, e.Target, e.Place, e.Detail, e.Value)
	case KindHash:
		fmt.Fprintf(b, "#%v", e.Digest)
	case KindSig:
		fmt.Fprintf(b, "sig[%s](", e.Signer)
		writeString(b, e.Left)
		b.WriteString(")")
	case KindSeq:
		b.WriteString("seq(")
		writeString(b, e.Left)
		b.WriteString(", ")
		writeString(b, e.Right)
		b.WriteString(")")
	case KindPar:
		b.WriteString("par(")
		writeString(b, e.Left)
		b.WriteString(", ")
		writeString(b, e.Right)
		b.WriteString(")")
	}
}

func shortBytes(b []byte) []byte {
	if len(b) > 4 {
		return b[:4]
	}
	return b
}

// Equal reports deep equality of two evidence trees via their canonical
// encodings.
func Equal(a, b *Evidence) bool {
	if a == nil || b == nil {
		return a == b
	}
	return string(Encode(a)) == string(Encode(b))
}
