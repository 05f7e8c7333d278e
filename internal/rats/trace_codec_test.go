package rats

// Wire-evolution tests for the trace-context trailer: pre-trace frames
// decode unchanged, unknown trailing LV fields survive a round trip
// (forward compatibility for the NEXT field after this one), truncated
// trailers still error, and the flow-sampling decision is a pure
// function of the flow string so two processes that share nothing but
// the wire agree on which flows to trace.

import (
	"bytes"
	"encoding/hex"
	"testing"
	"testing/quick"

	"pera/internal/telemetry"
)

func traceEqual(a, b *TraceContext) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || *a == *b
}

func extEqual(a, b []ExtField) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Tag != b[i].Tag || !bytes.Equal(a[i].Value, b[i].Value) {
			return false
		}
	}
	return true
}

// TestPreTraceFrameDecodes pins the v0 wire format: a frame assembled
// byte by byte the way the pre-trace encoder laid it out (no trailer at
// all) must decode cleanly with a nil trace context, and the current
// encoder must still emit exactly those bytes for a traceless message —
// old and new binaries interoperate in both directions.
func TestPreTraceFrameDecodes(t *testing.T) {
	legacy := []byte{byte(MsgChallenge)}
	legacy = append(legacy, 0, 0, 0, 0, 0, 0, 0, 42)             // session
	legacy = append(legacy, 0, 0, 0, 5, 'n', '1', '2', '3', '4') // nonce LV
	legacy = append(legacy, 0, 0, 0, 1)                          // one claim
	legacy = append(legacy, 0, 0, 0, 7, 'p', 'r', 'o', 'g', 'r', 'a', 'm')
	legacy = append(legacy, 0, 0, 0, 4, 'b', 'o', 'd', 'y') // body LV

	m, err := Decode(legacy)
	if err != nil {
		t.Fatalf("pre-trace frame rejected: %v", err)
	}
	if m.Trace != nil || m.Ext != nil {
		t.Fatalf("pre-trace frame grew trailer fields: %+v", m)
	}
	if m.Session != 42 || string(m.Nonce) != "n1234" || string(m.Body) != "body" {
		t.Fatalf("decoded: %+v", m)
	}
	if got := Encode(m); !bytes.Equal(got, legacy) {
		t.Fatalf("traceless re-encode changed bytes:\n got %x\nwant %x", got, legacy)
	}
}

func TestTraceContextRoundTrip(t *testing.T) {
	m := sampleMsg()
	m.Trace = &TraceContext{
		TraceID: "00112233445566778899aabbccddeeff",
		SpanID:  "0123456789abcdef",
		Sampled: true,
	}
	got, err := Decode(Encode(m))
	if err != nil {
		t.Fatal(err)
	}
	if !msgEqual(m, got) || !traceEqual(m.Trace, got.Trace) {
		t.Fatalf("round trip: %+v != %+v", got, m)
	}
	// Unsampled contexts round-trip the flag too.
	m.Trace.Sampled = false
	if got, _ = Decode(Encode(m)); got.Trace == nil || got.Trace.Sampled {
		t.Fatalf("sampled flag: %+v", got.Trace)
	}
}

// TestUnknownTrailerFieldRoundTrips is this change's promise to the
// NEXT wire evolution: fields with tags this binary does not know are
// carried through Decode→Encode verbatim, in order.
func TestUnknownTrailerFieldRoundTrips(t *testing.T) {
	m := sampleMsg()
	m.Trace = &TraceContext{
		TraceID: "ffeeddccbbaa99887766554433221100",
		SpanID:  "fedcba9876543210",
		Sampled: true,
	}
	m.Ext = []ExtField{
		{Tag: 7, Value: []byte("future field")},
		{Tag: 200, Value: nil},
	}
	enc := Encode(m)
	got, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !traceEqual(m.Trace, got.Trace) || !extEqual(m.Ext, got.Ext) {
		t.Fatalf("trailer round trip: %+v %+v", got.Trace, got.Ext)
	}
	if !bytes.Equal(Encode(got), enc) {
		t.Fatal("re-encode after decode changed bytes")
	}
	// A reserved-tag Ext entry must not shadow the canonical field.
	m.Ext = append(m.Ext, ExtField{Tag: 1, Value: make([]byte, 25)})
	got, err = Decode(Encode(m))
	if err != nil {
		t.Fatal(err)
	}
	if !traceEqual(m.Trace, got.Trace) || len(got.Ext) != 2 {
		t.Fatalf("reserved tag leaked into trailer: %+v %+v", got.Trace, got.Ext)
	}
}

func TestTruncatedTrailerErrors(t *testing.T) {
	base := Encode(sampleMsg())
	traced := sampleMsg()
	traced.Trace = &TraceContext{
		TraceID: "00112233445566778899aabbccddeeff",
		SpanID:  "0123456789abcdef",
	}
	full := Encode(traced)
	cases := [][]byte{
		append(append([]byte{}, base...), 1),                            // tag, no LV
		append(append([]byte{}, base...), 1, 0, 0, 0),                   // tag, short LV
		append(append([]byte{}, base...), 1, 0, 0, 0, 99),               // LV beyond data
		full[:len(full)-1],                                              // truncated value
		append(append([]byte{}, base...), 1, 0, 0, 0, 3, 'a', 'b', 'c'), // wrong trace length
	}
	for i, data := range cases {
		if _, err := Decode(data); err == nil {
			t.Errorf("case %d: truncated trailer decoded", i)
		}
	}
}

// Property: the codec round-trips arbitrary messages including the
// trace trailer and unknown extension fields.
func TestPropertyTraceCodecRoundTrip(t *testing.T) {
	f := func(typ uint8, session uint64, nonce, body []byte, tid [16]byte, sid [8]byte, sampled bool, extTag uint8, extVal []byte) bool {
		m := &Message{
			Type:    MsgType(typ%6) + 1,
			Session: session,
			Nonce:   nonce,
			Body:    body,
			Trace: &TraceContext{
				TraceID: hex.EncodeToString(tid[:]),
				SpanID:  hex.EncodeToString(sid[:]),
				Sampled: sampled,
			},
		}
		if extTag != extTagTrace {
			m.Ext = []ExtField{{Tag: extTag, Value: extVal}}
		}
		got, err := Decode(Encode(m))
		return err == nil && msgEqual(m, got) &&
			traceEqual(m.Trace, got.Trace) && extEqual(m.Ext, got.Ext)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// FuzzDecode throws raw bytes at the decoder: whatever decodes must
// re-encode to bytes that decode to the same message (codec is a
// retraction), and nothing may panic.
// fuzzDecodeSeeds is FuzzDecode's seed corpus: a plain and a traced
// message with an unknown trailer field, in the reference encoding, and
// a truncated frame.
func fuzzDecodeSeeds() [][]byte {
	traced := sampleMsg()
	traced.Trace = &TraceContext{
		TraceID: "00112233445566778899aabbccddeeff",
		SpanID:  "0123456789abcdef",
		Sampled: true,
	}
	traced.Ext = []ExtField{{Tag: 9, Value: []byte("x")}}
	return [][]byte{refEncode(sampleMsg()), refEncode(traced), {1, 0}}
}

func FuzzDecode(f *testing.F) {
	for _, seed := range fuzzDecodeSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		enc := Encode(m)
		if want := refEncode(m); !bytes.Equal(enc, want) || len(enc) != cap(enc) {
			t.Fatalf("Encode wrote %x (cap %d), reference %x", enc, cap(enc), want)
		}
		again, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !msgEqual(m, again) || !traceEqual(m.Trace, again.Trace) || !extEqual(m.Ext, again.Ext) {
			t.Fatalf("round trip diverged: %+v != %+v", m, again)
		}
	})
}

// TestCrossProcessSamplingDeterminism: two tracers sharing nothing (as
// in two processes at either end of a pipe) make identical sampling
// decisions for every flow, before and after retuning the rate —
// that's what lets both ends record the same traces with no protocol
// for agreeing on them.
func TestCrossProcessSamplingDeterminism(t *testing.T) {
	attesterSide := telemetry.NewFlowTracer(64)
	appraiserSide := telemetry.NewFlowTracer(64)

	flows := make([]string, 0, 64)
	for i := 0; i < 64; i++ {
		flows = append(flows, FlowID([]byte{byte(i), byte(i >> 1), 0xA5}))
	}
	check := func(every uint32) {
		t.Helper()
		attesterSide.SetSampleEvery(every)
		appraiserSide.SetSampleEvery(every)
		someSampled := false
		for _, flow := range flows {
			a, b := attesterSide.Sampled(flow), appraiserSide.Sampled(flow)
			if a != b {
				t.Fatalf("every=%d flow %s: attester sampled=%v appraiser sampled=%v", every, flow, a, b)
			}
			// The wire context agrees with the local decision: a conn at
			// either end derives the same TRACE identity from the same
			// nonce (span IDs are fresh per span, by design).
			if actx, bctx := attesterSide.NewContext(flow), appraiserSide.NewContext(flow); actx.TraceID != bctx.TraceID || actx.Valid() != bctx.Valid() {
				t.Fatalf("every=%d flow %s: contexts differ: %+v %+v", every, flow, actx, bctx)
			} else if actx.Valid() != a {
				t.Fatalf("every=%d flow %s: context valid=%v sampled=%v", every, flow, actx.Valid(), a)
			}
			someSampled = someSampled || a
		}
		if !someSampled {
			t.Fatalf("every=%d: no flow sampled", every)
		}
	}
	for _, every := range []uint32{1, 2, 8, 3} { // includes retune after traffic
		check(every)
	}
}

// TestPipeSamplingAgreement drives real frames across a pipe: the
// writer's auto-injected context is exactly what the reader's own
// tracer would have derived, so a sampled flow is sampled on BOTH ends
// and an unsampled one on neither.
func TestPipeSamplingAgreement(t *testing.T) {
	writerTr := telemetry.NewFlowTracer(64)
	readerTr := telemetry.NewFlowTracer(64)
	writerTr.SetSampleEvery(4)
	readerTr.SetSampleEvery(4)

	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	a.SetTracer(writerTr)

	done := make(chan struct{})
	var got []*Message
	go func() {
		defer close(done)
		for i := 0; i < 32; i++ {
			m, err := b.Read()
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			got = append(got, m)
		}
	}()
	for i := 0; i < 32; i++ {
		nonce := []byte{byte(i), 0x17}
		if err := a.Write(&Message{Type: MsgChallenge, Session: uint64(i), Nonce: nonce}); err != nil {
			t.Fatal(err)
		}
	}
	<-done

	sampled := 0
	for _, m := range got {
		flow := FlowID(m.Nonce)
		if (m.Trace != nil) != readerTr.Sampled(flow) {
			t.Fatalf("flow %s: wire trace=%v reader would sample=%v",
				flow, m.Trace != nil, readerTr.Sampled(flow))
		}
		if m.Trace != nil {
			if want := telemetry.TraceIDFromFlow(flow); m.Trace.TraceID != want {
				t.Fatalf("flow %s: wire trace %s, derived %s", flow, m.Trace.TraceID, want)
			}
			sampled++
		}
	}
	if sampled == 0 || sampled == len(got) {
		t.Fatalf("degenerate sampling at 1-in-4: %d/%d", sampled, len(got))
	}
}
