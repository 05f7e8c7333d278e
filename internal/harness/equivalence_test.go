package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"pera/internal/appraiser"
	"pera/internal/auditlog"
	"pera/internal/evidence"
	"pera/internal/nac"
	"pera/internal/p4ir"
	"pera/internal/pera"
	"pera/internal/pisa"
	"pera/internal/rot"
	"pera/internal/telemetry"
	"pera/internal/usecases"
)

// Instrumentation equivalence golden: one deterministic UC1 run with every
// consumer attached — a registry, a 1-in-1 flow tracer, an audit ledger
// and in-band hop spans — whose observable output is pinned to a file.
// The run touches every instrumented stage: Verify (batched and plain,
// pass and fail), evidence (cached and uncached), compose, sign, attest,
// hop, guard rejection, the appraiser's appraise/verify/verdict and nonce
// replay, and the pool's worker and batch-flush spans. Span IDs become
// ring indices, and timestamps, durations and MACs are reduced to
// "was it timed", so the file records what each channel said, not when.
//
// Regenerate with: go test ./internal/harness -run TestInstrumentationGolden -update

var updateGolden = flag.Bool("update", false, "rewrite the instrumentation golden file")

const equivalenceGolden = "testdata/instrumentation.golden"

func TestInstrumentationGolden(t *testing.T) {
	got := runEquivalence(t)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(equivalenceGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(equivalenceGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(equivalenceGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("instrumentation output differs from %s at line %d:\n got: %s\nwant: %s", equivalenceGolden, i+1, g, w)
			}
		}
	}
}

// runEquivalence drives the scenario and renders its normalized output.
func runEquivalence(t *testing.T) []byte {
	t.Helper()
	epoch := time.Unix(1_700_000_000, 0)
	cache := evidence.NewCacheWithClock(func() time.Time { return epoch })
	tb, err := usecases.NewLinearTestbed(3, pera.Config{
		InBand:      true,
		Composition: evidence.Chained,
		Cache:       cache,
		Spans:       pera.SpanConfig{Enabled: true, ByteBudget: 1 << 12},
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := tb.Keys()
	// sw1 verifies through the batch path, sw2 through the plain walk;
	// sw3 carries a standing obligation whose guard never matches.
	for name, sw := range tb.Switches {
		cfg := sw.Config()
		switch name {
		case "sw1":
			cfg.VerifyIncoming, cfg.VerifyMemo = keys, evidence.NewVerifyMemo(0)
		case "sw2":
			cfg.VerifyIncoming = keys
		case "sw3":
			cfg.Standing = []pera.Obligation{{
				Guards:       []pera.Guard{{Field: "tp.dport", Value: 1}},
				Claims:       []evidence.Detail{evidence.DetailTables},
				SignEvidence: true,
			}}
		}
		sw.SetConfig(cfg)
	}

	reg := telemetry.NewRegistry()
	tr := telemetry.NewFlowTracer(1 << 14)
	tr.SetSampleEvery(1)
	ledger := filepath.Join(t.TempDir(), "trail.jsonl")
	aud, err := auditlog.Create(ledger, auditlog.Options{KeyID: "golden"})
	if err != nil {
		t.Fatal(err)
	}
	for _, sw := range tb.Switches {
		sw.Instrument(reg)
		sw.SetTracer(tr)
		sw.SetAudit(aud)
	}
	cache.Instrument(reg)
	cache.SetAudit(aud)
	tb.Net.Instrument(reg)
	tr.Instrument(reg)
	aud.Instrument(reg)
	a := tb.Appraiser
	a.EnableMemo(0)
	a.Instrument(reg)
	a.SetAudit(aud)
	a.SetPolicy("AP1", nac.AP1)
	a.SetTracer(tr)

	var hops [][]pera.HopSpan
	var jobs []appraiser.Job
	send := func(tag string) []byte {
		nonce := tb.NextNonce(tag)
		compiled, err := usecases.CompileUC1Policy(tb, nonce)
		if err != nil {
			t.Fatal(err)
		}
		tb.Client.Clear()
		if err := tb.SendAttested(compiled.Policy, true, 40000, 443, []byte("golden")); err != nil {
			t.Fatal(err)
		}
		hdr, _, err := usecases.LastDelivered(tb.Client)
		if err != nil || hdr == nil {
			t.Fatalf("packet %s: header %v, err %v", tag, hdr, err)
		}
		hops = append(hops, hdr.Spans)
		if _, err := a.Appraise("bank→client path", hdr.Evidence, nonce); err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, appraiser.Job{Subject: "pool " + tag, Evidence: hdr.Evidence})
		return nonce
	}

	// Cold caches, then warm ones.
	first := send("cold")
	send("warm")
	// A replayed nonce is refused at the nonce stage.
	if _, err := a.Appraise("bank→client path", jobs[0].Evidence, first); !errors.Is(err, appraiser.ErrNonceReplayed) {
		t.Fatalf("replay: %v", err)
	}
	// sw2 without its cache builds uncached evidence.
	sw2 := tb.Switches["sw2"]
	cfg := sw2.Config()
	cfg.Cache = nil
	sw2.SetConfig(cfg)
	send("uncached")
	cfg.Cache = cache
	sw2.SetConfig(cfg)
	// A Pointwise sw3 sends its evidence out of band.
	sw3 := tb.Switches["sw3"]
	cfg3 := sw3.Config()
	pw := cfg3
	pw.Composition = evidence.Pointwise
	sw3.SetConfig(pw)
	send("pointwise")
	sw3.SetConfig(cfg3)

	// A chain signed by an unknown key is dropped at sw1's Verify stage.
	mallory := rot.NewDeterministic("mallory", []byte("mallory"))
	forged := evidence.Sign(mallory, evidence.Measurement("mallory", "x", "mallory", evidence.DetailProgram, rot.Digest{1: 1}, nil))
	inner, err := pisa.IPFrame(p4ir.NewForwarding("fwd_v1.p4"), 100, 200, 40000, 443, []byte("forged"))
	if err != nil {
		t.Fatal(err)
	}
	forgedPolicy := &pera.Policy{ID: 9, Nonce: []byte("forged-nonce")}
	out, err := tb.Switches["sw1"].Receive(1, pera.Push(&pera.Header{Policy: forgedPolicy, Evidence: forged}, inner))
	if err != nil || out != nil {
		t.Fatalf("forged frame: out %v err %v", out, err)
	}

	// The out-of-band attester path, under a propagated parent.
	parent := telemetry.SpanContext{TraceID: telemetry.TraceIDFromFlow("attest-golden"), SpanID: "00000000000000aa"}
	if _, err := tb.Switches["sw1"].AttestCtx(parent, []byte("attest-golden"), evidence.DetailHardware, evidence.DetailProgram); err != nil {
		t.Fatal(err)
	}

	// The pool path: one worker, a coalesced duplicate and a nonce job.
	a.SetTracer(nil)
	pool := appraiser.NewPool(a, 1)
	pool.Instrument(reg)
	pool.SetTracer(tr)
	pool.SetAudit(aud)
	jobs = append(jobs, jobs[0], appraiser.Job{Subject: "pool nonce", Evidence: jobs[1].Evidence, Nonce: []byte("pool-nonce")})
	for _, r := range pool.AppraiseAll(jobs) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	pool.Close()
	aud.Close()
	if d := aud.Dropped(); d != 0 {
		t.Fatalf("ledger dropped %d records", d)
	}

	var b bytes.Buffer
	writeSpans(&b, tr.Spans())
	writeLedger(t, &b, ledger)
	writeRegistry(&b, reg.Snapshot())
	writeHopSpans(&b, hops)
	writeLedger(t, &b, runAuditOnly(t))
	return b.Bytes()
}

// runAuditOnly sends two attested packets through a testbed with only
// the ledger attached and returns the sealed ledger's path. A ledger
// alone arms no switch-stage timer, so those records carry no duration;
// the appraiser times its verdicts for the ledger.
func runAuditOnly(t *testing.T) string {
	t.Helper()
	tb, err := usecases.NewLinearTestbed(2, pera.Config{InBand: true, Composition: evidence.Chained})
	if err != nil {
		t.Fatal(err)
	}
	ledger := filepath.Join(t.TempDir(), "audit-only.jsonl")
	aud, err := auditlog.Create(ledger, auditlog.Options{KeyID: "golden"})
	if err != nil {
		t.Fatal(err)
	}
	for _, sw := range tb.Switches {
		sw.SetAudit(aud)
	}
	tb.Appraiser.SetAudit(aud)
	for i := 0; i < 2; i++ {
		nonce := tb.NextNonce("audit")
		compiled, err := usecases.CompileUC1Policy(tb, nonce)
		if err != nil {
			t.Fatal(err)
		}
		tb.Client.Clear()
		if err := tb.SendAttested(compiled.Policy, true, 40000, 443, []byte("golden")); err != nil {
			t.Fatal(err)
		}
		hdr, _, err := usecases.LastDelivered(tb.Client)
		if err != nil || hdr == nil {
			t.Fatalf("audit-only packet %d: header %v, err %v", i, hdr, err)
		}
		if _, err := tb.Appraiser.Appraise("bank→client path", hdr.Evidence, nonce); err != nil {
			t.Fatal(err)
		}
	}
	aud.Close()
	if d := aud.Dropped(); d != 0 {
		t.Fatalf("audit-only ledger dropped %d records", d)
	}
	return ledger
}

// writeSpans renders the tracer ring in order with span IDs replaced by
// ring indices (parents and links alike) and durations reduced to
// whether the span was timed.
func writeSpans(b *bytes.Buffer, spans []telemetry.Span) {
	idx := make(map[string]int, len(spans))
	for i, s := range spans {
		idx[s.SpanID] = i
	}
	ref := func(id string) string {
		if id == "" {
			return "-"
		}
		if i, ok := idx[id]; ok {
			return fmt.Sprint(i)
		}
		return "ext"
	}
	fmt.Fprintf(b, "# spans %d\n", len(spans))
	for i, s := range spans {
		links := make([]string, len(s.Links))
		for j, l := range s.Links {
			links[j] = ref(l)
		}
		fmt.Fprintf(b, "span %d trace=%s parent=%s flow=%s place=%s stage=%s timed=%v note=%q links=%v\n",
			i, s.TraceID, ref(s.ParentID), s.Flow, s.Place, s.Stage, s.Dur > 0, s.Note, links)
	}
}

// writeLedger renders the sealed ledger with timestamps, chain links and
// MACs dropped and durations reduced to whether the record was timed.
func writeLedger(t *testing.T, b *bytes.Buffer, path string) {
	t.Helper()
	recs, err := auditlog.ReadLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(b, "# ledger %d\n", len(recs))
	for _, r := range recs {
		timed := r.DurNS > 0
		r.TS, r.Prev, r.MAC, r.DurNS = 0, "", "", 0
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(b, "record timed=%v %s\n", timed, line)
	}
}

// writeRegistry renders counter values and histogram counts. Byte
// counters that include hop-span sections or ledger lines are left out:
// those encode measured nanoseconds, so their sizes vary run to run.
func writeRegistry(b *bytes.Buffer, snap telemetry.Snapshot) {
	var lines []string
	for _, m := range snap.Metrics {
		switch {
		case m.Name == "pera_hop_span_bytes_total", m.Name == "pera_inband_bytes_total",
			strings.HasPrefix(m.Name, "pera_audit_") && strings.Contains(m.Name, "bytes"),
			strings.HasPrefix(m.Name, "pera_net_") && strings.Contains(m.Name, "bytes"):
			continue
		}
		id := m.Name + m.LabelString()
		switch {
		case m.Hist != nil:
			lines = append(lines, fmt.Sprintf("hist %s count=%d", id, m.Hist.Count))
		case m.Kind == telemetry.KindCounter:
			lines = append(lines, fmt.Sprintf("counter %s %v", id, m.Value))
		}
	}
	sort.Strings(lines)
	fmt.Fprintf(b, "# registry %d\n", len(lines))
	for _, l := range lines {
		fmt.Fprintln(b, l)
	}
}

// writeHopSpans renders every delivered frame's hop spans, timing
// fields reduced to whether they were measured.
func writeHopSpans(b *bytes.Buffer, frames [][]pera.HopSpan) {
	fmt.Fprintf(b, "# hop spans %d frames\n", len(frames))
	for i, spans := range frames {
		for _, sp := range spans {
			fmt.Fprintf(b, "hop %d place=%s flags=%d verify=%v sign=%v total=%v ev_bytes=%d cache=%d/%d guard_rejects=%d sample_skips=%d\n",
				i, sp.Place, sp.Flags, sp.VerifyNS > 0, sp.SignNS > 0, sp.TotalNS > 0,
				sp.EvBytes, sp.CacheHits, sp.CacheMisses, sp.GuardRejects, sp.SampleSkips)
		}
	}
}
