package evidence

import (
	"fmt"
	mrand "math/rand"
	"testing"

	"pera/internal/rot"
)

// hopChain builds an in-band style chain: hop i signs its measurement
// sequenced after everything upstream, Sign(s_i, Seq(chain, m_i)). bad,
// when non-nil, replaces the measurement of hop badAt.
func hopChain(signers []*rot.RoT, badAt int, bad *Evidence) *Evidence {
	chain := Nonce([]byte("nonce"))
	for i, s := range signers {
		m := Measurement("attest", "prog.p4", s.Name(), DetailProgram, rot.Sum([]byte{byte(i)}), nil)
		if bad != nil && i == badAt {
			m = bad
		}
		chain = Sign(s, Seq(chain, m))
	}
	return chain
}

// sigNodes returns the chain's signature nodes, innermost hop first.
func sigNodes(e *Evidence) []*Evidence {
	var out []*Evidence
	for e != nil && e.Kind == KindSig {
		out = append([]*Evidence{e}, out...)
		e = e.Left.Left // Sign(s, Seq(upstream, m))
	}
	return out
}

// expectWindow is the oracle for one Gather+Flush: it walks e the way
// Gather does and reports how many signatures the window holds, how many
// the memo already knew, and whether any gathered signature is invalid.
func expectWindow(e *Evidence, keys KeyMap, memo *VerifyMemo) (n, skips int, bad bool) {
	var walk func(*Evidence) bool // false stops the walk
	walk = func(ev *Evidence) bool {
		if ev == nil {
			return false
		}
		switch ev.Kind {
		case KindEmpty, KindNonce, KindMeasurement, KindHash:
			return true
		case KindSig:
			pub, ok := keys[ev.Signer]
			if !ok {
				return false
			}
			msg := sigMessage(ev.Signer, ev.Left)
			if _, known := memo.Known(pub, msg, ev.Signature); known {
				skips++
			} else {
				n++
				bad = bad || !rot.Verify(pub, msg, ev.Signature)
			}
			return walk(ev.Left)
		case KindSeq, KindPar:
			return walk(ev.Left) && walk(ev.Right)
		default:
			return false
		}
	}
	walk(e)
	return n, skips, bad
}

// TestVerifySignaturesBatchedDifferential checks the batched walk against
// the unbatched one on random hop chains of 1-8 signatures, with distinct
// and shared signer keys, some with a memo already holding an upstream
// prefix, and one corruption per faulty chain: a tampered signature, an
// unknown signer or a malformed node. The (count, error text) pair must
// match VerifySignaturesMemo with no memo, and the batch counters must
// move exactly as the window rule says for the window Gather saw.
func TestVerifySignaturesBatchedDifferential(t *testing.T) {
	rng := mrand.New(mrand.NewSource(12))
	pool := make([]*rot.RoT, 8)
	keys := KeyMap{}
	for i := range pool {
		pool[i] = testSigner(fmt.Sprintf("sw%d", i))
		keys[pool[i].Name()] = pool[i].Public()
	}
	stranger := testSigner("stranger") // signs, but has no key in keys

	bv := NewBatchVerifier(nil)
	sides := map[bool]int{} // window went through the batch equation
	for c := 0; c < 300; c++ {
		hops := 1 + rng.Intn(8)
		signers := make([]*rot.RoT, hops)
		shared := rng.Intn(2) == 0
		for i := range signers {
			if shared {
				signers[i] = pool[rng.Intn(3)]
			} else {
				signers[i] = pool[i]
			}
		}
		at := rng.Intn(hops)
		var badNode *Evidence
		fault := rng.Intn(5) // 0, 1: honest
		switch fault {
		case 3:
			signers[at] = stranger
		case 4:
			badNode = []*Evidence{nil, {Kind: Kind(99)}, {Kind: KindSeq, Left: Empty()}}[rng.Intn(3)]
		}
		chain := hopChain(signers, at, badNode)
		if fault == 2 {
			sig := sigNodes(chain)[at]
			sig.Signature = append([]byte(nil), sig.Signature...)
			sig.Signature[rng.Intn(len(sig.Signature))] ^= 1 << rng.Intn(8)
		}

		memo := NewVerifyMemo(0)
		if warm := rng.Intn(3) == 0 && hops > 1; warm {
			// The memo already verified the chain as it left hop k.
			k := rng.Intn(hops - 1)
			_, _ = VerifySignaturesMemo(sigNodes(chain)[k], keys, memo)
		}

		wantN, wantErr := VerifySignaturesMemo(chain, keys, nil)
		n, skips, bad := expectWindow(chain, keys, memo)
		before := ReadBatchStats()
		gotN, gotErr := VerifySignaturesBatched(chain, keys, memo, bv)
		after := ReadBatchStats()

		name := fmt.Sprintf("case %d (hops %d, shared %v, fault %d at %d)", c, hops, shared, fault, at)
		if gotN != wantN || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: batched (%d, %v), unbatched (%d, %v)", name, gotN, gotErr, wantN, wantErr)
		}
		want := BatchStats{MemoSkips: uint64(skips)}
		if n >= BatchMinSigs {
			want.Batches = 1
			if bad {
				want.Fallbacks = 1
			} else {
				want.Sigs = uint64(n)
			}
		}
		got := BatchStats{
			Batches:   after.Batches - before.Batches,
			Sigs:      after.Sigs - before.Sigs,
			Fallbacks: after.Fallbacks - before.Fallbacks,
			MemoSkips: after.MemoSkips - before.MemoSkips,
		}
		if got != want {
			t.Fatalf("%s: window of %d: batch counter deltas %+v, want %+v", name, n, got, want)
		}
		if n > 0 {
			sides[n >= BatchMinSigs]++
		}
	}
	if sides[true] == 0 || sides[false] == 0 {
		t.Fatalf("windows did not cover both sides of the rule: %v", sides)
	}
}
