// Package rot provides a simulated hardware root of trust for the PERA
// reproduction.
//
// The paper's threat model (§3) assumes "evidence-producing hardware
// components (e.g., those that initialize a chip or generate a digital
// signature) are trustworthy". Production deployments would realize this
// with a TPM, DICE engine, or an ASIC-integrated signing block; this
// package substitutes a software simulation that produces real SHA-256
// measurement chains and real Ed25519 signatures, so every verification
// path an appraiser would run against hardware quotes runs unchanged here.
//
// A RoT owns:
//
//   - a bank of platform configuration registers (PCRs) supporting only
//     the extend operation, so recorded history cannot be rewritten;
//   - an append-only measured-boot event log that can be replayed against
//     the PCR bank;
//   - an attestation identity key (AIK) used exclusively to sign Quotes;
//   - a monotonic counter for anti-rollback evidence.
package rot

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"pera/internal/ed25519batch"
)

// DigestSize is the size in bytes of all measurement digests (SHA-256).
const DigestSize = sha256.Size

// NumPCRs is the number of platform configuration registers in a bank,
// matching the TPM 2.0 convention.
const NumPCRs = 24

// Digest is a SHA-256 measurement value.
type Digest [DigestSize]byte

// String renders the digest as hex, truncated for readability.
func (d Digest) String() string { return fmt.Sprintf("%x", d[:8]) }

// IsZero reports whether the digest is the all-zero (reset) value.
func (d Digest) IsZero() bool { return d == Digest{} }

// Sum computes the digest of data.
func Sum(data []byte) Digest { return sha256.Sum256(data) }

// Errors returned by RoT operations.
var (
	ErrPCRIndex       = errors.New("rot: PCR index out of range")
	ErrQuoteSignature = errors.New("rot: quote signature invalid")
	ErrQuoteNonce     = errors.New("rot: quote nonce mismatch")
	ErrQuotePCRs      = errors.New("rot: quoted PCR digest does not match expected values")
	ErrLogReplay      = errors.New("rot: event log replay does not reproduce PCR values")
	ErrCertificate    = errors.New("rot: AIK certificate invalid")
	ErrCounter        = errors.New("rot: monotonic counter regression")
)

// Event is one measured-boot event: a digest extended into a PCR together
// with a description of what was measured.
type Event struct {
	PCR    int
	Digest Digest
	Desc   string
}

// RoT is a simulated root of trust. It is safe for concurrent use.
type RoT struct {
	mu      sync.Mutex
	name    string
	pcrs    [NumPCRs]Digest
	log     []Event
	aik     ed25519.PrivateKey
	aikPub  ed25519.PublicKey
	counter uint64
	boots   uint64
}

// New creates a root of trust with a freshly generated AIK. name identifies
// the platform (e.g. a switch serial number or its operator pseudonym).
func New(name string) (*RoT, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("rot: generating AIK: %w", err)
	}
	return &RoT{name: name, aik: priv, aikPub: pub, boots: 1}, nil
}

// NewDeterministic creates a root of trust whose AIK is derived from seed.
// It exists for reproducible tests and benchmarks; production-style use
// should call New.
func NewDeterministic(name string, seed []byte) *RoT {
	h := sha256.Sum256(seed)
	priv := ed25519.NewKeyFromSeed(h[:])
	return &RoT{
		name:   name,
		aik:    priv,
		aikPub: priv.Public().(ed25519.PublicKey),
		boots:  1,
	}
}

// Name returns the platform identity string.
func (r *RoT) Name() string { return r.name }

// Public returns the AIK public key used to verify this RoT's quotes.
func (r *RoT) Public() ed25519.PublicKey {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append(ed25519.PublicKey(nil), r.aikPub...)
}

// Extend folds digest into PCR index and appends the event to the boot log.
// Extend is the only way to change a PCR value, mirroring hardware.
func (r *RoT) Extend(index int, digest Digest, desc string) error {
	if index < 0 || index >= NumPCRs {
		return fmt.Errorf("%w: %d", ErrPCRIndex, index)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pcrs[index] = extendOne(r.pcrs[index], digest)
	r.log = append(r.log, Event{PCR: index, Digest: digest, Desc: desc})
	return nil
}

// ExtendData measures raw data (hashing it first) into PCR index.
func (r *RoT) ExtendData(index int, data []byte, desc string) error {
	return r.Extend(index, Sum(data), desc)
}

func extendOne(old, d Digest) Digest {
	h := sha256.New()
	h.Write(old[:])
	h.Write(d[:])
	var out Digest
	h.Sum(out[:0])
	return out
}

// PCR returns the current value of a register.
func (r *RoT) PCR(index int) (Digest, error) {
	if index < 0 || index >= NumPCRs {
		return Digest{}, fmt.Errorf("%w: %d", ErrPCRIndex, index)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pcrs[index], nil
}

// EventLog returns a copy of the measured-boot log.
func (r *RoT) EventLog() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.log...)
}

// Reboot clears all PCRs and the event log, as a platform reset would,
// and increments the boot counter. Attested state must be re-measured.
func (r *RoT) Reboot() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pcrs = [NumPCRs]Digest{}
	r.log = nil
	r.boots++
}

// Boots returns the number of platform boots, which appraisers can use to
// detect resets between evidence collections.
func (r *RoT) Boots() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.boots
}

// CounterIncrement advances and returns the monotonic counter.
func (r *RoT) CounterIncrement() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counter++
	return r.counter
}

// Counter returns the current monotonic counter value.
func (r *RoT) Counter() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counter
}

// Quote is a signed report over a selection of PCRs, bound to a caller
// nonce for freshness. It is the unit of hardware-rooted evidence.
type Quote struct {
	Platform  string
	Nonce     []byte
	PCRSelect []int
	PCRDigest Digest // digest over the selected PCR values
	Boots     uint64
	Counter   uint64
	Signature []byte
}

// quoteMessage builds the canonical byte string that the AIK signs.
func quoteMessage(platform string, nonce []byte, sel []int, pcrDigest Digest, boots, counter uint64) []byte {
	var buf []byte
	buf = append(buf, "PERA-QUOTE-V1\x00"...)
	buf = appendLV(buf, []byte(platform))
	buf = appendLV(buf, nonce)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(sel)))
	for _, i := range sel {
		buf = binary.BigEndian.AppendUint32(buf, uint32(i))
	}
	buf = append(buf, pcrDigest[:]...)
	buf = binary.BigEndian.AppendUint64(buf, boots)
	buf = binary.BigEndian.AppendUint64(buf, counter)
	return buf
}

func appendLV(buf, v []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(v)))
	return append(buf, v...)
}

// Quote signs the current values of the selected PCRs bound to nonce.
// The selection is sorted and deduplicated so logically equal selections
// produce identical quote messages.
func (r *RoT) Quote(nonce []byte, pcrSelect ...int) (*Quote, error) {
	sel := normalizeSelection(pcrSelect)
	for _, i := range sel {
		if i < 0 || i >= NumPCRs {
			return nil, fmt.Errorf("%w: %d", ErrPCRIndex, i)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	pd := digestPCRs(&r.pcrs, sel)
	msg := quoteMessage(r.name, nonce, sel, pd, r.boots, r.counter)
	q := &Quote{
		Platform:  r.name,
		Nonce:     append([]byte(nil), nonce...),
		PCRSelect: sel,
		PCRDigest: pd,
		Boots:     r.boots,
		Counter:   r.counter,
		Signature: ed25519.Sign(r.aik, msg),
	}
	return q, nil
}

// SigPrefix is the domain-separation prefix Sign prepends to every
// message before the Ed25519 operation. Batch verifiers that feed raw
// triples to an Ed25519 verifier (or the batch equation) must build
// SigPrefix‖message themselves to match what Sign actually signed.
const SigPrefix = "PERA-SIG-V1\x00"

// Sign signs an arbitrary message under the AIK with domain separation from
// quotes. PERA's dataplane Sign stage uses this for evidence chunks.
func (r *RoT) Sign(message []byte) []byte {
	msg := append([]byte(SigPrefix), message...)
	r.mu.Lock()
	defer r.mu.Unlock()
	return ed25519.Sign(r.aik, msg)
}

// AuditKey derives the platform's audit-ledger MAC key from the AIK
// seed, domain-separated from every signing use of the key. It matches
// auditlog.DeriveKey's construction (SHA-256 over "PERA-AUDIT-KEY-V1" ||
// secret) with the AIK seed as the secret, so a ledger written by a
// platform verifies against the key that platform's RoT reports —
// without the auditlog package depending on rot or vice versa.
func (r *RoT) AuditKey() []byte {
	r.mu.Lock()
	seed := r.aik.Seed()
	r.mu.Unlock()
	h := sha256.New()
	h.Write([]byte("PERA-AUDIT-KEY-V1"))
	h.Write(seed)
	return h.Sum(nil)
}

// Verify checks a detached signature produced by Sign under pub; a key or
// signature of the wrong length fails.
func Verify(pub ed25519.PublicKey, message, sig []byte) bool {
	msg := append([]byte(SigPrefix), message...)
	return ed25519batch.Verify(pub, msg, sig)
}

func normalizeSelection(sel []int) []int {
	out := append([]int(nil), sel...)
	sort.Ints(out)
	dedup := out[:0]
	prev := -1
	for _, v := range out {
		if v != prev {
			dedup = append(dedup, v)
			prev = v
		}
	}
	return dedup
}

func digestPCRs(pcrs *[NumPCRs]Digest, sel []int) Digest {
	h := sha256.New()
	for _, i := range sel {
		h.Write(pcrs[i][:])
	}
	var out Digest
	h.Sum(out[:0])
	return out
}

// VerifyQuote checks q's signature under pub and that the nonce matches.
// It does not check PCR contents; use VerifyQuoteAgainst for that.
func VerifyQuote(pub ed25519.PublicKey, q *Quote, nonce []byte) error {
	msg := quoteMessage(q.Platform, q.Nonce, q.PCRSelect, q.PCRDigest, q.Boots, q.Counter)
	if !ed25519batch.Verify(pub, msg, q.Signature) {
		return ErrQuoteSignature
	}
	if nonce != nil && !equalBytes(nonce, q.Nonce) {
		return ErrQuoteNonce
	}
	return nil
}

// VerifyQuoteAgainst verifies signature, nonce, and that the quoted PCR
// digest equals the digest of the supplied expected PCR values (golden
// values), in selection order.
func VerifyQuoteAgainst(pub ed25519.PublicKey, q *Quote, nonce []byte, expected map[int]Digest) error {
	if err := VerifyQuote(pub, q, nonce); err != nil {
		return err
	}
	h := sha256.New()
	for _, i := range q.PCRSelect {
		v, ok := expected[i]
		if !ok {
			return fmt.Errorf("%w: no golden value for PCR %d", ErrQuotePCRs, i)
		}
		h.Write(v[:])
	}
	var want Digest
	h.Sum(want[:0])
	if want != q.PCRDigest {
		return ErrQuotePCRs
	}
	return nil
}

// ReplayLog recomputes PCR values from an event log. Appraisers use this
// to check that a claimed log is consistent with a quoted PCR digest.
func ReplayLog(events []Event) ([NumPCRs]Digest, error) {
	var pcrs [NumPCRs]Digest
	for _, ev := range events {
		if ev.PCR < 0 || ev.PCR >= NumPCRs {
			return pcrs, fmt.Errorf("%w: event PCR %d", ErrPCRIndex, ev.PCR)
		}
		pcrs[ev.PCR] = extendOne(pcrs[ev.PCR], ev.Digest)
	}
	return pcrs, nil
}

// VerifyLogAgainstQuote replays events and checks the result matches the
// quote's PCR digest over the quote's selection.
func VerifyLogAgainstQuote(events []Event, q *Quote) error {
	pcrs, err := ReplayLog(events)
	if err != nil {
		return err
	}
	if digestPCRs(&pcrs, q.PCRSelect) != q.PCRDigest {
		return ErrLogReplay
	}
	return nil
}

// readRandom fills b from crypto/rand, panicking on failure: entropy
// exhaustion is unrecoverable for an attestation system.
func readRandom(b []byte) {
	if _, err := io.ReadFull(rand.Reader, b); err != nil {
		panic(fmt.Sprintf("rot: reading entropy: %v", err))
	}
}

// NewNonce returns a fresh 32-byte nonce for freshness binding.
func NewNonce() []byte {
	b := make([]byte, 32)
	readRandom(b)
	return b
}

func equalBytes(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
