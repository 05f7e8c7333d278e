package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// perLayerMetrics are the per-layer metrics a traced run prints in its
// result line, in BENCHMARK.json order. Each is defined on every
// workload: a layer a workload does not exercise reads 0 in its counts
// and shares, and the times listed here are measured on all four. The
// text ledger prints the layer times only some workloads have.
var perLayerMetrics = []struct{ name, unit string }{
	{"rot.sign_ns", "ns"},
	{"rot.signs_per_op", "count"},
	{"evidence.batch_windows", "count"},
	{"evidence.batch_sigs", "count"},
	{"evidence.batch_fallbacks", "count"},
	{"evidence.batch_memo_skips", "count"},
	{"evidence.memo_hits", "count"},
	{"evidence.memo_misses", "count"},
	{"evidence.memo_hit_rate", "ratio"},
	{"evidence.cache_hit_rate", "ratio"},
	{"evidence.encode_ns", "ns"},
	{"evidence.decode_ns", "ns"},
	{"evidence.decode_shared_ns", "ns"},
	{"evidence.memo_hit_ns", "ns"},
	{"ed25519batch.ns_per_sig", "ns"},
	{"ed25519.single_ns_per_sig", "ns"},
	{"netsim.deliveries", "count"},
	{"netsim.dropped", "count"},
	{"pera.inband_bytes_per_pkt", "B"},
	{"pera.sample_skips", "count"},
	{"pera.verify_ops", "count"},
	{"pera.verify_fails", "count"},
	{"appraiser.appraise_ns", "ns"},
	{"appraiser.cert_verify_ns", "ns"},
	{"appraiser.pool_fail", "count"},
	{"appraiser.pool_errors", "count"},
	{"rats.bytes_per_op", "B"},
	{"auditlog.records_per_op", "count"},
	{"auditlog.bytes_per_op", "B"},
	{"auditlog.dropped", "count"},
	{"ledger.sum_ns", "ns"},
	{"ledger.e2e_ns", "ns"},
	{"ledger.residual_ns", "ns"},
	{"ledger.residual_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"ledger.harness_share", "ratio"},
	{"ledger.nac_share", "ratio"},
	{"ledger.pisa_share", "ratio"},
	{"ledger.netsim_share", "ratio"},
	{"ledger.pera_share", "ratio"},
	{"ledger.rot_share", "ratio"},
	{"ledger.appraiser_share", "ratio"},
	{"ledger.rats_share", "ratio"},
}

// rounds is how many untraced/traced chunk pairs a traced run
// alternates, so host drift over the run reaches both sides alike.
const rounds = 16

// phaseTotals sums the chunks of one side of a traced run.
type phaseTotals struct {
	ops, failed int
	busyNs      float64 // wall ns x clients
	delta       counts
	problems    []string
}

func (t *phaseTotals) add(ph *phase, clients int) {
	t.ops += ph.attempted()
	t.failed += ph.failed
	t.busyNs += float64(ph.end.Sub(ph.start)) * float64(clients)
	if t.delta == nil {
		t.delta = counts{}
	}
	for k, v := range ph.delta {
		t.delta[k] += v
	}
	t.problems = append(t.problems, ph.mismatches...)
	if ph.dropped > 0 {
		t.problems = append(t.problems, fmt.Sprintf("... and %d more", ph.dropped))
	}
}

func (t *phaseTotals) nsPerOp() float64 { return t.busyNs / math.Max(1, float64(t.ops)) }

// runTraced builds an untraced and a traced setup side by side and
// alternates between them: untraced chunks (half the run in all) give
// the end-to-end ns per op, traced chunks (a fixed op count, so counts
// repeat per seed) give the spans the ledger accounts layer by layer.
func runTraced(w workloadDef, seed uint64, seconds float64, workdir string) (result, error) {
	sys, _, problems, err := setup(w, seed, workdir, nil)
	if err != nil {
		return result{}, err
	}
	ops := tracedOps(w, seconds)
	tr := newTracer(ops * w.spansPerOp)
	tdir := filepath.Join(workdir, "traced")
	if err := os.MkdirAll(tdir, 0o755); err != nil {
		sys.close()
		return result{}, err
	}
	tsys, _, probs, err := setup(w, seed, tdir, tr)
	if err != nil {
		sys.close()
		return result{}, err
	}
	problems = append(problems, probs...)
	tr.reset()
	resetTraceCounters(tsys)
	var plain, traced phaseTotals
	chunk := time.Duration(seconds / 2 / rounds * float64(time.Second))
	for r := 0; r < rounds; r++ {
		p := newTimedPhase(chunk, int(float64(w.rate)*chunk.Seconds()*2))
		sys.run(p)
		plain.add(p, sys.concurrency())
		t := newFixedPhase(ops / rounds)
		tsys.run(t)
		traced.add(t, tsys.concurrency())
	}
	problems = append(problems, sys.close()...)
	problems = append(problems, tsys.close()...)
	problems = append(problems, plain.problems...)
	problems = append(problems, traced.problems...)

	spans := tr.snapshot()
	st := byName(spans)
	n := traced.ops
	l := buildLedger(st, n, traced.nsPerOp(), plain.nsPerOp())
	pl, text, err := layerMetrics(tsys, n, traced.delta, st, l, workdir)
	if err != nil {
		return result{}, err
	}
	spanPath := filepath.Join(workdir, fmt.Sprintf("spans-%s.jsonl", w.name))
	if err := tr.write(spanPath); err != nil {
		return result{}, err
	}

	fmt.Printf("untraced chunks  %d ops, %.0f ns/op busy per client\n", plain.ops, plain.nsPerOp())
	fmt.Printf("traced chunks    %d ops, %d spans written to %s\n", n, len(spans), spanPath)
	l.print(os.Stdout)
	fmt.Println("layer metrics:")
	names := make([]string, 0, len(pl)+len(text))
	all := map[string]float64{}
	for k, v := range pl {
		names, all[k] = append(names, k), v
	}
	for k, v := range text {
		names, all[k] = append(names, k), v
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-30s %14.4f %s\n", k, all[k], unitOf(k))
	}

	res := result{Attempted: n + plain.ops, Failed: traced.failed + plain.failed, Metrics: map[string]metric{}, problems: problems}
	for _, m := range perLayerMetrics {
		res.Metrics[m.name] = metric{pl[m.name], m.unit}
	}
	return res, nil
}

// maxTracedOps bounds the traced phase, and with it the spans held in
// memory and written out.
const maxTracedOps = 32768

// tracedOps sizes the traced phase to about half the run at the
// workload's nominal rate, in whole appraisal windows. The size depends
// only on the workload and --seconds, so one seed repeats its counts.
func tracedOps(w workloadDef, seconds float64) int {
	ops := int(float64(w.rate) * seconds / 2)
	if ops > maxTracedOps {
		ops = maxTracedOps
	}
	unit := rounds * windowSize // whole windows in every traced chunk
	ops = (ops + unit - 1) / unit * unit
	if ops < unit {
		ops = unit
	}
	return ops
}

// reset drops the spans recorded so far (the warm-up's).
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
}

// resetTraceCounters zeroes the timing nodes' and capture's counters
// after the warm-up.
func resetTraceCounters(sys system) {
	switch s := sys.(type) {
	case *inband:
		for _, h := range s.hops {
			h.ns, h.n, h.verifyNs, h.verifyN = 0, 0, 0, 0
		}
		s.cap.windows, s.cap.windowNs, s.cap.waitNs = 0, 0, 0
	case *oob:
		s.cap.ratsMsgs, s.cap.ratsBytes = 0, 0
	}
}

func unitOf(name string) string {
	if unit, ok := unitIn(name); ok {
		return unit
	}
	switch {
	case strings.Contains(name, "_ns") || strings.Contains(name, "ns_per_"):
		return "ns"
	case strings.HasSuffix(name, "_rate") || strings.HasSuffix(name, "_frac") || strings.HasSuffix(name, "_share"):
		return "ratio"
	case strings.Contains(name, "bytes"):
		return "B"
	}
	return "count"
}

// layerMetrics derives the per-layer metrics from the traced phase: the
// result-line set, and the layer times only some workloads have (text).
func layerMetrics(sys system, ops int, d counts, st map[spanKind]nameStats, l ledger, workdir string) (pl, text map[string]float64, err error) {
	n := math.Max(1, float64(ops))
	per := func(v int64) float64 { return float64(v) / n }
	ratio := func(a, b uint64) float64 {
		if a+b == 0 {
			return 0
		}
		return float64(a) / float64(a+b)
	}
	pl = map[string]float64{
		"rot.sign_ns":               per(st[spSign].Dur),
		"rot.signs_per_op":          per(st[spSign].Count),
		"evidence.batch_windows":    float64(d["batch_windows"]),
		"evidence.batch_sigs":       float64(d["batch_sigs"]),
		"evidence.batch_fallbacks":  float64(d["batch_fallbacks"]),
		"evidence.batch_memo_skips": float64(d["batch_memo_skips"]),
		"evidence.memo_hits":        float64(d["memo_hits"]),
		"evidence.memo_misses":      float64(d["memo_misses"]),
		"evidence.memo_hit_rate":    ratio(d["memo_hits"], d["memo_misses"]),
		"evidence.cache_hit_rate":   ratio(d["cache_hits"], d["cache_misses"]),
		"netsim.deliveries":         float64(d["deliveries"]),
		"netsim.dropped":            float64(d["dropped"]),
		"pera.sample_skips":         float64(d["sample_skips"]),
		"pera.verify_ops":           float64(d["verify_ops"]),
		"pera.verify_fails":         float64(d["verify_fails"]),
		"appraiser.appraise_ns":     per(st[spWindow].Dur + st[spAppraise].Dur + st[spHandle].Dur),
		"appraiser.cert_verify_ns":  per(st[spCertVerify].Dur),
		"appraiser.pool_fail":       float64(d["pool_fail"]),
		"appraiser.pool_errors":     float64(d["pool_errors"]),
		"auditlog.records_per_op":   float64(d["audit_records"]) / n,
		"auditlog.bytes_per_op":     float64(d["audit_bytes"]) / n,
		"auditlog.dropped":          float64(d["audit_dropped"]),
		"ledger.sum_ns":             l.SumNs,
		"ledger.e2e_ns":             l.E2ENs,
		"ledger.residual_ns":        l.ResidualNs,
		"ledger.residual_frac":      l.ResidualFrac,
		"trace.overhead_frac":       l.OverheadFrac,
	}
	if d["packets"] > 0 {
		pl["pera.inband_bytes_per_pkt"] = float64(d["inband_bytes"]) / float64(d["packets"])
	}
	for _, layer := range ledgerLayers {
		if l.SumNs > 0 {
			pl["ledger."+layer+"_share"] = l.SelfNsPerOp[layer] / l.SumNs
		}
	}
	text = map[string]float64{
		"nac.policy_ns":            per(st[spCompile].Dur),
		"netsim.send_ns":           per(st[spSend].Dur),
		"netsim.self_ns":           per(st[spSend].Self),
		"pera.hop_ns":              per(st[spHop].Dur),
		"pera.hop_self_ns":         per(st[spHop].Self),
		"rats.challenge_ns":        per(st[spChallenge].Dur),
		"rats.appraise_call_ns":    per(st[spAppraiseRPC].Dur),
		"rats.transport_ns":        per(st[spChallenge].Self + st[spAppraiseRPC].Self),
		"pera.attest_ns":           per(st[spAttest].Dur),
		"appraiser.handle_ns":      per(st[spHandle].Dur),
		"appraiser.window_ns":      0,
		"appraiser.window_wait_ns": 0,
	}
	var c *captured
	switch s := sys.(type) {
	case *inband:
		c = s.cap
		var vns int64
		for _, h := range s.hops {
			vns += h.verifyNs
			text["pera.hop_ns."+h.sw.Name()] = per(h.ns)
		}
		text["pera.verify_ns"] = per(vns)
		if c.windows > 0 {
			text["appraiser.window_ns"] = float64(c.windowNs) / float64(c.windows)
			text["appraiser.window_wait_ns"] = float64(c.waitNs) / float64(c.windows*windowSize)
		}
	case *oob:
		c = s.cap
		text["auditlog.close_ns"] = float64(s.closeNs)
		if c.ratsMsgs > 0 {
			pl["rats.bytes_per_op"] = float64(c.ratsBytes) / float64(c.ratsMsgs)
		}
	}
	probes, err := runProbes(c, keysOf(sys), workdir)
	if err != nil {
		return nil, nil, err
	}
	for k, v := range probes {
		if _, ok := unitIn(k); ok {
			pl[k] = v
		} else {
			text[k] = v
		}
	}
	return pl, text, nil
}

// unitIn reports whether name is a result-line per-layer metric.
func unitIn(name string) (string, bool) {
	for _, m := range perLayerMetrics {
		if m.name == name {
			return m.unit, true
		}
	}
	return "", false
}
