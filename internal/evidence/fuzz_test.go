package evidence

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// Mutation robustness: decoding arbitrarily corrupted evidence must
// return an error or a valid tree — never panic, never hang, never
// allocate unboundedly. A PERA switch parses these bytes off the wire
// from untrusted peers.
func TestDecodeMutationRobustness(t *testing.T) {
	s := testSigner("sw1")
	base := Encode(sampleTree(s))
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		data := append([]byte(nil), base...)
		// Apply 1-4 random mutations: flip, truncate, extend.
		for m := 0; m < 1+rng.Intn(4); m++ {
			switch rng.Intn(3) {
			case 0:
				if len(data) > 0 {
					data[rng.Intn(len(data))] ^= byte(1 + rng.Intn(255))
				}
			case 1:
				if len(data) > 1 {
					data = data[:rng.Intn(len(data))]
				}
			case 2:
				data = append(data, byte(rng.Intn(256)))
			}
		}
		ev, err := Decode(data)
		if err == nil {
			// If it decoded, it must be structurally valid and
			// re-encodable.
			if verr := Validate(ev); verr != nil {
				t.Fatalf("mutation %d: decoded invalid tree: %v", i, verr)
			}
			_ = Encode(ev)
		}
	}
}

// Random byte strings (not derived from valid encodings).
func TestDecodeRandomBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		data := make([]byte, rng.Intn(200))
		rng.Read(data)
		if ev, err := Decode(data); err == nil {
			if verr := Validate(ev); verr != nil {
				t.Fatalf("random %d: invalid tree accepted: %v", i, verr)
			}
		}
	}
}

// Deeply nested trees must decode within the node bound, not recurse
// to a stack overflow.
func TestDecodeDeepNesting(t *testing.T) {
	// A long chain of sig nodes (each 1 child).
	var data []byte
	depth := maxNodes + 10
	for i := 0; i < depth; i++ {
		data = append(data, byte(KindSig))
		data = append(data, 0, 0, 0, 1, 'x') // signer "x"
		data = append(data, 0, 0, 0, 0)      // empty signature
	}
	data = append(data, byte(KindEmpty))
	if _, err := Decode(data); err == nil {
		t.Fatal("over-deep tree decoded")
	}
}

// FuzzDecodeShared is the oracle for the two decoders. On any input the
// zero-copy DecodeShared and the copying Decode both fail with the same
// error or both succeed with deep-equal trees; an accepted input
// re-encodes to itself (the encoding is canonical); and the counting pass
// sized the node block to exactly the tree it accepted. The seed corpus
// is testdata/fuzz/FuzzDecodeShared.
func FuzzDecodeShared(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		want, werr := Decode(data)
		got, gerr := DecodeShared(data)
		if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
			t.Fatalf("Decode err %v, DecodeShared err %v", werr, gerr)
		}
		if werr != nil {
			return
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("Decode and DecodeShared trees differ:\n %s\n %s", want, got)
		}
		if enc := Encode(got); !bytes.Equal(enc, data) {
			t.Fatalf("accepted input re-encodes differently:\n in  %x\n out %x", data, enc)
		}
		d := decoder{buf: data}
		if n, err := d.count(); err != nil || n != nodeCount(got) || d.off != len(data) {
			t.Fatalf("count = %d, %v over %d of %d bytes; tree has %d nodes", n, err, d.off, len(data), nodeCount(got))
		}
	})
}
