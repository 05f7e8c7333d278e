package evidence

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"sync"
	"sync/atomic"

	"pera/internal/auditlog"
	"pera/internal/rot"
	"pera/internal/telemetry"
)

// VerifyMemo is a bounded, sharded memo of signature-verification
// outcomes: (public key, message digest, signature) → verdict. It is the
// paper's §5.2 inertia axis applied to the verifier side — high-inertia
// evidence re-presented across thousands of packets is byte-identical
// (claims are cached on the switch and Ed25519 signing is deterministic),
// so after the first full verification each re-presentation costs one
// SHA-256 over the candidate triple instead of one full Ed25519
// verification (ed25519batch.Verify, through rot.Verify).
//
// Both verdicts are cacheable: a (key, message, signature) triple that
// failed once fails forever, so negative results are memoized too and a
// replayed forgery never earns a second full verification.
//
// The memo is safe for concurrent use; it is sharded so appraisal workers
// verifying different chains do not serialize behind one lock.
type VerifyMemo struct {
	shards   [memoShards]memoShard
	perShard int

	hits   atomic.Uint64
	misses atomic.Uint64
	aud    atomic.Pointer[auditlog.Writer]
}

// SetAudit attaches the audit ledger: the first full verification of
// each signature triple (the memo-miss path, where the real Ed25519
// check runs) is recorded as a memo_insert event with its verdict, so
// the ledger shows exactly which cryptographic checks were actually
// performed versus served from memory. A nil writer detaches.
func (m *VerifyMemo) SetAudit(w *auditlog.Writer) {
	if m == nil {
		return
	}
	m.aud.Store(w)
}

const memoShards = 16

// DefaultMemoCapacity bounds a memo built with capacity <= 0.
const DefaultMemoCapacity = 8192

// memoShard bounds its entries with FIFO replacement: ring holds keys in
// insertion order and, once full, each insert overwrites (and deletes)
// the oldest. Verdicts are immutable — a triple's verdict never changes —
// so recency tracking buys nothing here, and FIFO keeps the hit path to
// one map read and the insert path to one map write plus a ring slot
// (the previous list-based LRU cost three heap objects per insert).
type memoShard struct {
	mu      sync.Mutex
	entries map[memoKey]bool
	ring    []memoKey // grows to perShard, then wraps
	pos     int       // next overwrite index once the ring is full
}

// memoKey is the SHA-256 of the canonical (pubkey, signature, message)
// triple. Hashing the full triple (not just the message) means a colliding
// key would need a full SHA-256 collision to alias two verdicts.
type memoKey [sha256.Size]byte

// NewVerifyMemo returns a memo bounded to capacity entries (rounded up to
// at least one entry per shard). capacity <= 0 selects
// DefaultMemoCapacity.
func NewVerifyMemo(capacity int) *VerifyMemo {
	if capacity <= 0 {
		capacity = DefaultMemoCapacity
	}
	per := (capacity + memoShards - 1) / memoShards
	if per < 1 {
		per = 1
	}
	// Shard maps are created lazily on first store into each shard —
	// lookups against a nil map are natural misses, and a memo is
	// rebuilt per run in benchmarks and sweeps, so the 16-shard eager
	// setup was pure constructor overhead.
	return &VerifyMemo{perShard: per}
}

// memoHashPool recycles SHA-256 states for key construction; sha256.New
// escapes to the heap through the hash.Hash interface, so without the
// pool every memo lookup — hit or miss — would allocate.
var memoHashPool = sync.Pool{New: func() any { return &memoHasher{h: sha256.New()} }}

// memoHasher pairs a hasher with its scratch bytes so key computation
// stays allocation-free: a stack array written or summed through the
// hash.Hash interface escapes, while the pooled buffers are already on
// the heap.
type memoHasher struct {
	h   hash.Hash
	lp  [4]byte // a field's length prefix
	sum [sha256.Size]byte
}

// memoKeyOf builds the lookup key. Fields are length-prefixed so the
// boundary between public key, signature and message is unambiguous.
func memoKeyOf(pub ed25519.PublicKey, message, sig []byte) memoKey {
	mh := memoHashPool.Get().(*memoHasher)
	h := mh.h
	h.Reset()
	binary.BigEndian.PutUint32(mh.lp[:], uint32(len(pub)))
	h.Write(mh.lp[:])
	h.Write(pub)
	binary.BigEndian.PutUint32(mh.lp[:], uint32(len(sig)))
	h.Write(mh.lp[:])
	h.Write(sig)
	h.Write(message)
	var k memoKey
	copy(k[:], h.Sum(mh.sum[:0]))
	memoHashPool.Put(mh)
	return k
}

// lookup returns the memoized verdict for k and whether it was present.
func (m *VerifyMemo) lookup(k memoKey) (verdict, ok bool) {
	s := &m.shards[binary.BigEndian.Uint32(k[:4])%memoShards]
	s.mu.Lock()
	defer s.mu.Unlock()
	verdict, ok = s.entries[k]
	return verdict, ok
}

// store records a verdict for k, displacing the oldest entry once the
// shard is at its bound. Concurrent duplicate stores keep the existing
// entry: verdicts for identical triples are identical.
func (m *VerifyMemo) store(k memoKey, verdict bool) {
	s := &m.shards[binary.BigEndian.Uint32(k[:4])%memoShards]
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.entries[k]; ok {
		return
	}
	if s.entries == nil {
		s.entries = make(map[memoKey]bool)
	}
	s.entries[k] = verdict
	if len(s.ring) < m.perShard {
		s.ring = append(s.ring, k)
		return
	}
	delete(s.entries, s.ring[s.pos])
	s.ring[s.pos] = k
	s.pos = (s.pos + 1) % m.perShard
}

// auditInsert records one full (non-memoized) verification on the ledger.
func (m *VerifyMemo) auditInsert(verdict bool, note string) {
	aud := m.aud.Load()
	if aud == nil {
		return
	}
	v := "PASS"
	if !verdict {
		v = "FAIL"
	}
	aud.Emit(auditlog.Record{Event: auditlog.EventMemoInsert, Verdict: v, Note: note})
}

// Verify checks the detached rot.Sign-style signature under pub, consulting
// the memo first. A nil memo is valid and always verifies in full. Unlike
// the generic Check, this path builds no closure, so memo hits are
// allocation-free.
func (m *VerifyMemo) Verify(pub ed25519.PublicKey, message, sig []byte) bool {
	if m == nil {
		return rot.Verify(pub, message, sig)
	}
	k := memoKeyOf(pub, message, sig)
	if v, ok := m.lookup(k); ok {
		m.hits.Add(1)
		return v
	}
	m.misses.Add(1)
	v := rot.Verify(pub, message, sig)
	m.auditInsert(v, "full signature verification (memo miss)")
	m.store(k, v)
	return v
}

// Seed records an externally computed verdict for the triple — the memo
// transport batch verification uses: a verify window batch-checks its
// signatures, seeds the verdicts here, and the unchanged appraisal logic
// then consumes them as ordinary memo hits, which is what keeps batched
// and per-item verdicts bit-identical.
func (m *VerifyMemo) Seed(pub ed25519.PublicKey, message, sig []byte, verdict bool, note string) {
	if m == nil {
		return
	}
	k := memoKeyOf(pub, message, sig)
	if _, ok := m.lookup(k); ok {
		return
	}
	m.misses.Add(1)
	m.auditInsert(verdict, note)
	m.store(k, verdict)
}

// Known reports whether a verdict for the triple is already memoized,
// without counting a hit or a miss. Batch gatherers use it to skip
// triples that need no verification.
func (m *VerifyMemo) Known(pub ed25519.PublicKey, message, sig []byte) (verdict, ok bool) {
	if m == nil {
		return false, false
	}
	return m.lookup(memoKeyOf(pub, message, sig))
}

// Check returns the memoized verdict for (pub, message, sig), calling
// verify and recording its result on a miss. It is the generic entry point
// for memoizing any signature-shaped check (quotes); the evidence
// signature path uses the closure-free Verify.
func (m *VerifyMemo) Check(pub ed25519.PublicKey, message, sig []byte, verify func() bool) bool {
	if m == nil {
		return verify()
	}
	k := memoKeyOf(pub, message, sig)
	if v, ok := m.lookup(k); ok {
		m.hits.Add(1)
		return v
	}
	m.misses.Add(1)
	v := verify()
	m.auditInsert(v, "full signature verification (memo miss)")
	m.store(k, v)
	return v
}

// MemoStats reports memo effectiveness counters.
type MemoStats struct {
	Hits    uint64
	Misses  uint64
	Entries int
}

// HitRate returns hits/(hits+misses), or 0 with no lookups.
func (s MemoStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats returns a snapshot of the counters. A nil memo reports zeros.
func (m *VerifyMemo) Stats() MemoStats {
	if m == nil {
		return MemoStats{}
	}
	st := MemoStats{Hits: m.hits.Load(), Misses: m.misses.Load()}
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		st.Entries += len(s.entries)
		s.mu.Unlock()
	}
	return st
}

// ResetStats zeroes the hit/miss counters without dropping entries.
func (m *VerifyMemo) ResetStats() {
	if m == nil {
		return
	}
	m.hits.Store(0)
	m.misses.Store(0)
}

// Instrument publishes the memo's effectiveness counters as lazy
// telemetry metrics, read from the counters the memo already maintains —
// the Check hot path is untouched. Nil-safe on both arguments.
func (m *VerifyMemo) Instrument(reg *telemetry.Registry) {
	if m == nil || reg == nil {
		return
	}
	reg.RegisterFunc("pera_verify_memo_hits_total", telemetry.KindCounter,
		func() float64 { return float64(m.hits.Load()) })
	reg.RegisterFunc("pera_verify_memo_misses_total", telemetry.KindCounter,
		func() float64 { return float64(m.misses.Load()) })
	reg.RegisterFunc("pera_verify_memo_entries", telemetry.KindGauge,
		func() float64 { return float64(m.Stats().Entries) })
}
