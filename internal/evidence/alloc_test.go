package evidence

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"pera/internal/rot"
)

// allocEvidence builds a representative signed chain for the allocation
// and aliasing tests below.
func allocEvidence(t testing.TB) (*Evidence, *rot.RoT) {
	t.Helper()
	r, err := rot.New("sw1")
	if err != nil {
		t.Fatal(err)
	}
	m1 := Measurement("sw1", "prog", "sw1", DetailProgram, rot.Digest{1: 1}, nil)
	m2 := Measurement("sw1", "tables", "sw1", DetailTables, rot.Digest{2: 2}, nil)
	return Sign(r, Seq(m1, m2)), r
}

// TestAppendSigMessageZeroAlloc pins the single-buffer signature message
// construction: appending into a buffer with sufficient capacity must not
// allocate at all, and SigMessageSize must predict the exact length so
// callers can size that buffer up front.
func TestAppendSigMessageZeroAlloc(t *testing.T) {
	ev, _ := allocEvidence(t)
	want := SigMessageSize("sw1", ev)
	buf := make([]byte, 0, want)
	if got := len(AppendSigMessage(buf, "sw1", ev)); got != want {
		t.Fatalf("SigMessageSize predicted %d, AppendSigMessage wrote %d", want, got)
	}
	allocs := testing.AllocsPerRun(100, func() {
		buf = AppendSigMessage(buf[:0], "sw1", ev)
	})
	if allocs != 0 {
		t.Fatalf("AppendSigMessage into presized buffer allocated %.1f/op, want 0", allocs)
	}
}

// TestSigMessageMatchesAppend keeps the two construction paths (the
// allocation-free append and the sizing helper) byte-identical.
func TestSigMessageMatchesAppend(t *testing.T) {
	ev, _ := allocEvidence(t)
	a := AppendSigMessage(nil, "sw1", ev)
	b := sigMessage("sw1", ev)
	if !bytes.Equal(a, b) {
		t.Fatalf("sigMessage and AppendSigMessage diverge:\n %x\n %x", a, b)
	}
}

// TestDecodeSharedDoesNotAliasInput is the zero-copy decoding contract:
// DecodeShared copies the wire bytes into one private slab, so zeroing
// the input after decode must leave the tree untouched.
func TestDecodeSharedDoesNotAliasInput(t *testing.T) {
	ev, _ := allocEvidence(t)
	wire := Encode(ev)
	dec, err := DecodeShared(wire)
	if err != nil {
		t.Fatal(err)
	}
	before := Encode(dec)
	for i := range wire {
		wire[i] = 0
	}
	after := Encode(dec)
	if !bytes.Equal(before, after) {
		t.Fatal("decoded tree aliases the input buffer")
	}
	if !bytes.Equal(before, Encode(ev)) {
		t.Fatal("decode round-trip changed the encoding")
	}
}

// blockTree builds a tree of exactly n nodes with no byte or string
// fields, so decoding it allocates nothing but nodes (and, for
// DecodeShared, the slab): a right spine of Seq nodes over Hash leaves,
// under an empty Sig when n is even.
func blockTree(n int) *Evidence {
	switch {
	case n == 1:
		return &Evidence{Kind: KindHash, Digest: rot.Digest{1: 1}}
	case n%2 == 0:
		return &Evidence{Kind: KindSig, Left: blockTree(n - 1)}
	}
	return &Evidence{Kind: KindSeq, Left: blockTree(1), Right: blockTree(n - 2)}
}

var (
	nodeSink  []Evidence
	bytesSink []byte
	treeSink  *Evidence
)

// allocShape runs f and reports its heap allocations and allocated bytes
// per run, counted after size-class rounding. Stray allocations elsewhere
// in the process can only add to a round, so it keeps the least of a few.
func allocShape(f func()) (allocs, size uint64) {
	const rounds, runs = 5, 100
	f() // warm the intern table and any lazy state
	allocs, size = ^uint64(0), ^uint64(0)
	for range rounds {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			f()
		}
		runtime.ReadMemStats(&after)
		allocs = min(allocs, (after.Mallocs-before.Mallocs)/runs)
		size = min(size, (after.TotalAlloc-before.TotalAlloc)/runs)
	}
	return allocs, size
}

// nodeBlockBytes is what the runtime allocates for a block of n nodes:
// n × unsafe.Sizeof(Evidence{}), rounded to its size class.
func nodeBlockBytes(t *testing.T, n int) uint64 {
	_, got := allocShape(func() { nodeSink = make([]Evidence, n) })
	if need := uint64(n) * uint64(unsafe.Sizeof(Evidence{})); got < need || got > need+need/8+8192 {
		t.Fatalf("a %d-node block allocated %d bytes for %d needed", n, got, need)
	}
	return got
}

// TestDecodeNodeBlock pins the decoders' allocation shape: whatever the
// tree's size, DecodeShared makes exactly two allocations — the slab and
// one block of exactly the tree's nodes — and the copying Decode makes
// the same single node block (blockTree has no fields for it to copy).
// A fixed-size arena would show up here as a 32-node block for a 1-node
// tree, or two blocks for a 33-node one.
func TestDecodeNodeBlock(t *testing.T) {
	type decodeCase struct {
		name  string
		tree  *Evidence
		nodes int
	}
	signed, _ := allocEvidence(t)
	cases := []decodeCase{{"signed-chain", signed, 4}}
	for _, n := range []int{1, 2, 32, 33, 201} {
		cases = append(cases, decodeCase{fmt.Sprintf("%d-nodes", n), blockTree(n), n})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			wire := Encode(c.tree)
			if got := nodeCount(c.tree); got != c.nodes {
				t.Fatalf("tree has %d nodes, want %d", got, c.nodes)
			}
			block := nodeBlockBytes(t, c.nodes)
			_, slab := allocShape(func() { bytesSink = append([]byte(nil), wire...) })

			allocs, got := allocShape(func() { treeSink, _ = DecodeShared(wire) })
			if allocs != 2 || got != slab+block {
				t.Errorf("DecodeShared: %d allocs of %d bytes, want 2 of %d (slab %d + node block %d)",
					allocs, got, slab+block, slab, block)
			}
			if c.tree == signed {
				return // Decode copies its names and signature
			}
			allocs, got = allocShape(func() { treeSink, _ = Decode(wire) })
			if allocs != 1 || got != block {
				t.Errorf("Decode: %d allocs of %d bytes, want 1 node block of %d", allocs, got, block)
			}
		})
	}
}

// nodeCount counts the nodes of a tree.
func nodeCount(e *Evidence) int {
	if e == nil {
		return 0
	}
	return 1 + nodeCount(e.Left) + nodeCount(e.Right)
}

// TestMemoHitZeroAlloc pins the memo's read path: once a triple is
// memoized, Verify (a hit), Known and a repeated Seed build the key and
// look it up without allocating.
func TestMemoHitZeroAlloc(t *testing.T) {
	_, r := allocEvidence(t)
	msg := []byte("memoized message")
	pub, sig := r.Public(), r.Sign(msg)
	m := NewVerifyMemo(0)
	if !m.Verify(pub, msg, sig) {
		t.Fatal("valid signature rejected")
	}
	for name, f := range map[string]func(){
		"Verify hit": func() { m.Verify(pub, msg, sig) },
		"Known":      func() { m.Known(pub, msg, sig) },
		"Seed":       func() { m.Seed(pub, msg, sig, true, "") },
	} {
		if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
			t.Errorf("%s allocated %.1f/op, want 0", name, allocs)
		}
	}
}
