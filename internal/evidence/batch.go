package evidence

import (
	"crypto/ed25519"
	"fmt"
	"sync/atomic"

	"pera/internal/ed25519batch"
	"pera/internal/rot"
	"pera/internal/telemetry"
)

// Batch-verification counters, exported as pera_verify_batch_* metrics
// via InstrumentBatch. Package-global because batch verifiers are
// short-lived window objects; the counters outlive them.
var (
	batchBatches   atomic.Uint64 // windows flushed through the batch equation
	batchSigs      atomic.Uint64 // signatures verified in batches
	batchFallbacks atomic.Uint64 // windows re-verified per-item after a batch failure
	batchSkipped   atomic.Uint64 // signatures skipped because the memo already knew
	batchLastSize  atomic.Uint64 // size of the most recent window
)

// InstrumentBatch registers the batch-verification counters with reg.
func InstrumentBatch(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.RegisterFunc("pera_verify_batch_batches_total", telemetry.KindCounter,
		func() float64 { return float64(batchBatches.Load()) })
	reg.RegisterFunc("pera_verify_batch_sigs_total", telemetry.KindCounter,
		func() float64 { return float64(batchSigs.Load()) })
	reg.RegisterFunc("pera_verify_batch_fallbacks_total", telemetry.KindCounter,
		func() float64 { return float64(batchFallbacks.Load()) })
	reg.RegisterFunc("pera_verify_batch_memo_skips_total", telemetry.KindCounter,
		func() float64 { return float64(batchSkipped.Load()) })
	reg.RegisterFunc("pera_verify_batch_window_size", telemetry.KindGauge,
		func() float64 { return float64(batchLastSize.Load()) })
}

// BatchStats is a snapshot of the package batch counters, for tests and
// the benchmark harness.
type BatchStats struct {
	Batches, Sigs, Fallbacks, MemoSkips uint64
}

// ReadBatchStats returns the current counters.
func ReadBatchStats() BatchStats {
	return BatchStats{
		Batches:   batchBatches.Load(),
		Sigs:      batchSigs.Load(),
		Fallbacks: batchFallbacks.Load(),
		MemoSkips: batchSkipped.Load(),
	}
}

// BatchVerifier collects the signature nodes of one or more evidence
// chains and verifies them with a single Ed25519 batch equation
// (internal/ed25519batch), seeding the verdicts into a VerifyMemo. The
// appraisal logic itself is untouched: it re-walks the chain through
// VerifySignaturesMemo and consumes the seeded verdicts as memo hits, so
// a batched appraisal renders exactly the verdict a per-item appraisal
// would.
//
// When the batch equation fails — at least one signature in the window is
// bad — every gathered triple is re-verified individually with
// ed25519batch's VerifyOne, whose verdicts are crypto/ed25519.Verify's
// (FuzzVerifyOneVsStdlib pins that agreement, the standard library
// staying the test oracle), and the per-item verdicts are seeded
// instead.
//
// A BatchVerifier is not safe for concurrent use; pools hold one per
// verify window. Zero allocation in steady state: the message arena and
// item list are retained across Reset.
type BatchVerifier struct {
	memo  *VerifyMemo
	bv    *ed25519batch.Verifier
	arena []byte // rot.SigPrefix‖sigMessage, back to back
	items []batchSigRef
}

type batchSigRef struct {
	pub      ed25519.PublicKey
	sig      []byte
	off, end int // wire message bounds in arena (prefix included)
}

// NewBatchVerifier returns a verifier seeding verdicts into memo. The
// memo is the transport that hands batch results to the appraisal walk;
// it may be nil at construction (pooled verifiers are built idle) but
// must be set via Reset before Flush, or the batch work is wasted.
func NewBatchVerifier(memo *VerifyMemo) *BatchVerifier {
	return &BatchVerifier{memo: memo, bv: ed25519batch.NewVerifier()}
}

// Reset re-arms the verifier for a new window, optionally retargeting a
// different memo (nil keeps the current one).
func (b *BatchVerifier) Reset(memo *VerifyMemo) {
	if memo != nil {
		b.memo = memo
	}
	b.arena = b.arena[:0]
	b.items = b.items[:0]
}

// Pending returns the number of gathered, not-yet-flushed signatures.
func (b *BatchVerifier) Pending() int { return len(b.items) }

// Gather walks e and queues every signature node whose verdict the memo
// does not already know. Unknown signers fail fast with the same error
// the verification walk would produce; the caller typically ignores the
// error and lets appraisal render it, since Gather is an optimization
// pass, not a verdict.
func (b *BatchVerifier) Gather(e *Evidence, keys KeyResolver) error {
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
			off := len(b.arena)
			b.arena = append(b.arena, rot.SigPrefix...)
			msgOff := len(b.arena)
			b.arena = AppendSigMessage(b.arena, ev.Signer, ev.Left)
			if _, known := b.memo.Known(pub, b.arena[msgOff:], ev.Signature); known {
				batchSkipped.Add(1)
				b.arena = b.arena[:off]
			} else {
				b.items = append(b.items, batchSigRef{
					pub: pub, sig: ev.Signature, off: off, end: len(b.arena),
				})
			}
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
	return walk(e)
}

// BatchMinSigs is the smallest window the batch equation is worth. The
// crossover comes from BenchmarkVerifyBatchSweep in internal/ed25519batch
// (numbers in docs/PERFORMANCE.md), which times the batch against the
// per-item path Flush would take instead — VerifyOne on the same
// Verifier, with a warm key cache. One signature through the batch
// equation costs 1.27–1.34 VerifyOnes, so a window of one goes per item.
// Two cost 0.85–0.94 of two VerifyOnes (and 0.80 under one shared key in
// a paired, interleaved run of the same comparison), three or more 0.85
// or less, falling to about 0.65 at eight distinct keys and 0.5 at eight
// signatures under three keys. The sweep covered windows whose n
// signatures are all under distinct keys (u = n) and under three shared
// keys; fewer keys made the batch cheaper but no key shape brought a
// window of two or more up to the per-item cost, so the rule reads the
// window's size only, and stays at two.
const BatchMinSigs = 2

// Flush verifies every gathered signature and seeds the verdicts into the
// memo. Windows of at least BatchMinSigs signatures go through one batch
// equation, re-verified per item with VerifyOne if it fails; smaller
// windows verify per item directly. The window is reset either way.
func (b *BatchVerifier) Flush() {
	n := len(b.items)
	if n == 0 {
		return
	}
	batchLastSize.Store(uint64(n))
	batched, note := false, "full signature verification (memo miss)"
	if n >= BatchMinSigs {
		b.bv.Reset()
		for i := range b.items {
			it := &b.items[i]
			b.bv.Add(it.pub, b.arena[it.off:it.end], it.sig)
		}
		batchBatches.Add(1)
		if batched = b.bv.Verify(); batched {
			// One equation proved every signature in the window.
			batchSigs.Add(uint64(n))
			note = "batch signature verification (window seed)"
		} else {
			// At least one bad signature: attribute per item with
			// VerifyOne, which renders rot.Verify's verdict on every
			// input.
			batchFallbacks.Add(1)
			note = "per-item fallback after batch failure"
		}
	}
	for i := range b.items {
		it := &b.items[i]
		msg := b.arena[it.off:it.end]
		v := batched || b.bv.VerifyOne(it.pub, msg, it.sig)
		b.memo.Seed(it.pub, msg[len(rot.SigPrefix):], it.sig, v, note)
	}
	b.items = b.items[:0]
	b.arena = b.arena[:0]
}

// VerifySignaturesBatched is VerifySignaturesMemo with the verification
// work front-loaded through the batch equation: gather unknown
// signatures, flush them as one batch, then run the ordinary memoized
// walk (which now hits for every node). memo must not be nil. The
// (count, error) result is identical to VerifySignaturesMemo's.
func VerifySignaturesBatched(e *Evidence, keys KeyResolver, memo *VerifyMemo, b *BatchVerifier) (int, error) {
	if b == nil {
		b = NewBatchVerifier(memo)
	} else {
		b.Reset(memo)
	}
	// Gather errors (unknown signer, malformed tree) are deliberately
	// dropped: the memoized walk below reproduces them with the exact
	// error text the unbatched path reports.
	_ = b.Gather(e, keys)
	b.Flush()
	return VerifySignaturesMemo(e, keys, memo)
}
