package evidence

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"pera/internal/rot"
)

// Canonical binary encoding of evidence trees.
//
// The encoding is a preorder walk; each node starts with a one-byte kind
// tag followed by its fields, strings and byte slices as u32
// length-prefixed values. Canonicality (one tree ⇒ one byte string, and
// vice versa) matters because digests and signatures are computed over the
// encoding: any ambiguity would let an attacker present one tree to a
// signer and a different one to an appraiser.
//
// The same encoding travels in-band inside the PERA evidence header and
// out-of-band inside RATS messages.

// encodeLimits bound decoding so a hostile in-band header cannot cause
// unbounded allocation on a switch.
const (
	maxFieldLen = 1 << 20 // 1 MiB per string/bytes field
	maxNodes    = 1 << 16 // nodes per tree
)

// ErrDecode wraps all decoding failures.
var ErrDecode = errors.New("evidence: decode error")

// Encode serializes e into its canonical binary form. A nil tree encodes
// as the empty node.
func Encode(e *Evidence) []byte {
	var b []byte
	return appendEvidence(b, e)
}

// AppendEncode appends e's canonical form to buf and returns the extended
// slice, for allocation-conscious callers on the switch fast path.
func AppendEncode(buf []byte, e *Evidence) []byte {
	return appendEvidence(buf, e)
}

func appendEvidence(b []byte, e *Evidence) []byte {
	if e == nil {
		return append(b, byte(KindEmpty))
	}
	b = append(b, byte(e.Kind))
	switch e.Kind {
	case KindEmpty:
	case KindNonce:
		b = appendBytes(b, e.Nonce)
	case KindMeasurement:
		b = appendString(b, e.Measurer)
		b = appendString(b, e.Target)
		b = appendString(b, e.Place)
		b = append(b, byte(e.Detail))
		b = append(b, e.Value[:]...)
		b = appendBytes(b, e.Claims)
	case KindHash:
		b = append(b, e.Digest[:]...)
	case KindSig:
		b = appendString(b, e.Signer)
		b = appendBytes(b, e.Signature)
		b = appendEvidence(b, e.Left)
	case KindSeq, KindPar:
		b = appendEvidence(b, e.Left)
		b = appendEvidence(b, e.Right)
	}
	return b
}

func appendString(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

func appendBytes(b, v []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(v)))
	return append(b, v...)
}

// Decode parses a canonical encoding back into a tree. It rejects trailing
// bytes, oversized fields, and trees beyond maxNodes. The nodes come from
// one block sized to the tree and each field gets its own copy of the
// input bytes; for the per-packet path prefer DecodeShared.
func Decode(data []byte) (*Evidence, error) {
	return decodeAll(decoder{buf: data})
}

// DecodeShared parses a canonical encoding with shared backing storage:
// the input is copied ONCE into a private slab, every decoded byte field
// aliases that slab (capacity-clamped, so appending to a field reallocates
// instead of clobbering a sibling), the nodes come from one block sized to
// the tree, and string fields go through a bounded intern table (measurer,
// place and signer names recur on every packet of a flow). A decode is
// thus two allocations, the slab and the node block, once the names are
// interned. The result never aliases data — callers may reuse or mutate
// their buffer freely — but the nodes of one tree share storage: treat a
// DecodeShared tree as immutable, or replace fields wholesale rather than
// writing into their byte slices.
func DecodeShared(data []byte) (*Evidence, error) {
	slab := append([]byte(nil), data...)
	return decodeAll(decoder{buf: slab, shared: true})
}

func decodeAll(d decoder) (*Evidence, error) {
	e, err := d.tree()
	if err != nil {
		return nil, err
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrDecode, len(d.buf)-d.off)
	}
	return e, nil
}

// internTab deduplicates decoded strings across packets. The table is
// bounded: oversized strings bypass it and a full table is dropped
// wholesale (hostile unique-string floods degrade to plain allocation,
// they cannot grow memory without bound).
var internTab struct {
	sync.RWMutex
	m map[string]string
}

const (
	internCap    = 4096
	internMaxLen = 128
)

func internString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if len(b) > internMaxLen {
		return string(b)
	}
	internTab.RLock()
	s, ok := internTab.m[string(b)] // key lookup does not allocate
	internTab.RUnlock()
	if ok {
		return s
	}
	s = string(b)
	internTab.Lock()
	if internTab.m == nil || len(internTab.m) >= internCap {
		internTab.m = make(map[string]string, 64)
	}
	internTab.m[s] = s
	internTab.Unlock()
	return s
}

// DecodePrefix parses one evidence tree from the front of data and returns
// it with the number of bytes consumed, for streaming contexts (in-band
// headers carrying evidence followed by payload).
func DecodePrefix(data []byte) (*Evidence, int, error) {
	d := decoder{buf: data}
	e, err := d.tree()
	if err != nil {
		return nil, 0, err
	}
	return e, d.off, nil
}

// decoder reads one preorder encoding in two passes over buf: count
// checks it and sizes the node block, then evidence builds the tree into
// that block. In shared mode (DecodeShared) fields alias buf and strings
// are interned; otherwise both are copied out.
type decoder struct {
	buf    []byte
	off    int
	shared bool
	block  []Evidence // nodes not yet handed out by evidence
}

// tree decodes the tree at the front of buf and leaves d.off just past it.
func (d *decoder) tree() (*Evidence, error) {
	n, err := d.count()
	if err != nil {
		return nil, err
	}
	d.off = 0
	d.block = make([]Evidence, n)
	return d.evidence(), nil
}

// count is the first pass: it walks the tree at the front of buf without
// allocating and returns its node count. It checks everything the build pass takes
// on trust, in encoding order, so malformed input fails here and with the
// first error a reader meets. The walk is iterative (pending counts the
// children announced but not yet read), and every node takes at least one
// byte, so the count is bounded by the bytes present as well as maxNodes.
func (d *decoder) count() (int, error) {
	nodes := 0
	for pending := 1; pending > 0; pending-- {
		if nodes++; nodes > maxNodes {
			return 0, fmt.Errorf("%w: tree exceeds %d nodes", ErrDecode, maxNodes)
		}
		k, err := d.byte()
		if err != nil {
			return 0, err
		}
		switch Kind(k) {
		case KindEmpty:
		case KindNonce:
			err = d.skipField()
		case KindMeasurement:
			err = d.skipMeasurement()
		case KindHash:
			err = d.skipDigest()
		case KindSig:
			if err = d.skipField(); err == nil {
				err = d.skipField()
			}
			pending++
		case KindSeq, KindPar:
			pending += 2
		default:
			return 0, fmt.Errorf("%w: unknown kind %d", ErrDecode, k)
		}
		if err != nil {
			return 0, err
		}
	}
	return nodes, nil
}

func (d *decoder) skipMeasurement() error {
	for range 3 { // measurer, target, place
		if err := d.skipField(); err != nil {
			return err
		}
	}
	db, err := d.byte()
	if err != nil {
		return err
	}
	if !Detail(db).Valid() {
		return fmt.Errorf("%w: invalid detail %d", ErrDecode, db)
	}
	if err := d.skipDigest(); err != nil {
		return err
	}
	return d.skipField() // claims
}

func (d *decoder) byte() (byte, error) {
	if d.off >= len(d.buf) {
		return 0, fmt.Errorf("%w: truncated", ErrDecode)
	}
	b := d.buf[d.off]
	d.off++
	return b, nil
}

func (d *decoder) skipDigest() error {
	if d.off+rot.DigestSize > len(d.buf) {
		return fmt.Errorf("%w: truncated digest", ErrDecode)
	}
	d.off += rot.DigestSize
	return nil
}

func (d *decoder) skipField() error {
	if d.off+4 > len(d.buf) {
		return fmt.Errorf("%w: truncated length", ErrDecode)
	}
	n := binary.BigEndian.Uint32(d.buf[d.off:])
	d.off += 4
	if n > maxFieldLen {
		return fmt.Errorf("%w: field of %d bytes exceeds limit", ErrDecode, n)
	}
	if d.off+int(n) > len(d.buf) {
		return fmt.Errorf("%w: truncated field", ErrDecode)
	}
	d.off += int(n)
	return nil
}

// evidence is the build pass over a tree count has accepted: its reads
// are unchecked and each node is the next one of d.block, which count
// sized exactly.
func (d *decoder) evidence() *Evidence {
	e := &d.block[0]
	d.block = d.block[1:]
	e.Kind = Kind(d.buf[d.off])
	d.off++
	switch e.Kind {
	case KindNonce:
		e.Nonce = d.bytes()
	case KindMeasurement:
		e.Measurer = d.string()
		e.Target = d.string()
		e.Place = d.string()
		e.Detail = Detail(d.buf[d.off])
		d.off++
		d.digest(&e.Value)
		e.Claims = d.bytes()
	case KindHash:
		d.digest(&e.Digest)
	case KindSig:
		e.Signer = d.string()
		e.Signature = d.bytes()
		e.Left = d.evidence()
	case KindSeq, KindPar:
		e.Left = d.evidence()
		e.Right = d.evidence()
	}
	return e
}

func (d *decoder) digest(out *rot.Digest) {
	d.off += copy(out[:], d.buf[d.off:d.off+rot.DigestSize])
}

// field returns the next length-prefixed field as a capacity-clamped
// sub-slice of buf, nil when empty.
func (d *decoder) field() []byte {
	n := int(binary.BigEndian.Uint32(d.buf[d.off:]))
	d.off += 4 + n
	if n == 0 {
		return nil
	}
	return d.buf[d.off-n : d.off : d.off]
}

func (d *decoder) bytes() []byte {
	if d.shared {
		return d.field()
	}
	return append([]byte(nil), d.field()...)
}

func (d *decoder) string() string {
	if d.shared {
		return internString(d.field())
	}
	return string(d.field())
}

// EncodedSize returns len(Encode(e)) without building the encoding, used
// by the Fig. 2/Fig. 4 harnesses to account header overhead.
func EncodedSize(e *Evidence) int {
	if e == nil {
		return 1
	}
	n := 1
	switch e.Kind {
	case KindNonce:
		n += 4 + len(e.Nonce)
	case KindMeasurement:
		n += 4 + len(e.Measurer)
		n += 4 + len(e.Target)
		n += 4 + len(e.Place)
		n += 1 + rot.DigestSize
		n += 4 + len(e.Claims)
	case KindHash:
		n += rot.DigestSize
	case KindSig:
		n += 4 + len(e.Signer)
		n += 4 + len(e.Signature)
		n += EncodedSize(e.Left)
	case KindSeq, KindPar:
		n += EncodedSize(e.Left) + EncodedSize(e.Right)
	}
	return n
}
