// Command perfbench is the repository's benchmark: four seeded
// workloads over the real attestation stack (usecases testbed, pera
// switches, netsim, rot, evidence, appraiser, rats, auditlog), each
// checked for correct verdicts, reporting end-to-end metrics from an
// untraced run and a per-layer cost ledger from a traced one.
//
// Run from the repository root (perfbench/run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload inband-fresh --seed 1 --seconds 15 --trace 0
//	bash perfbench/run.sh --selfcheck --seed 1
//	bash perfbench/run.sh --compare --a 'runs/parent/*.out' --b 'runs/change/*.out'
//
// See README.md beside this file for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"pera/internal/evidence"
)

const headerPrefix = "# perfbench "

// workloadDef describes one workload: why it exists, its nominal rate on
// a 2-vCPU host and spans per op (these size the traced phase), and its
// warm-up.
type workloadDef struct {
	name, why  string
	rate       int // ops/s, nominal
	spansPerOp int
	warmOps    int
}

var workloads = []workloadDef{
	{"inband-fresh", "per-packet fresh nonces: RoT sign and batch verify dominate, the verify memo churns", 2000, 14, 2 * windowSize},
	{"inband-sampled", "1-in-16 sampling at MTU size: header, copy, PISA and netsim cost, memo reads, crypto bypassed", 11000, 9, 1024},
	{"oob-rats", "out-of-band RATS over loopback TCP: codec, transport, quotes, single-chain verify, certificates, audit ledgers", 2600, 7, 128},
	{"inband-guarded", "6-hop Verify stage on every switch with 1-in-32 forgeries: failing batch windows, long chains", 240, 20, 2 * windowSize},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// system is one built workload: its testbed, listeners, pools and
// ledgers, ready to run phases of ops.
type system interface {
	run(ph *phase)
	concurrency() int // closed-loop clients
	close() []string  // stop everything; report what the end-of-run checks found
}

func build(w workloadDef, seed uint64, workdir string, tr *tracer) (system, error) {
	if w.name == "oob-rats" {
		return newOOB(seed, workdir, tr)
	}
	return newInband(w.name, seed, tr)
}

// setup builds the workload and runs its warm-up pass: everything the
// timed phase must not pay for.
func setup(w workloadDef, seed uint64, workdir string, tr *tracer) (system, time.Duration, []string, error) {
	start := time.Now()
	sys, err := build(w, seed, workdir, tr)
	if err != nil {
		return nil, 0, nil, err
	}
	warm := newFixedPhase(w.warmOps)
	sys.run(warm)
	d := time.Since(start)
	var problems []string
	for _, m := range warm.mismatches {
		problems = append(problems, "warm-up: "+m)
	}
	if warm.failed > 0 && len(problems) == 0 {
		problems = append(problems, fmt.Sprintf("warm-up: %d failed ops", warm.failed))
	}
	return sys, d, problems, nil
}

func main() {
	var (
		name      = flag.String("workload", "", "workload: inband-fresh, inband-sampled, oob-rats or inband-guarded")
		seed      = flag.Uint64("seed", 1, "input seed")
		seconds   = flag.Float64("seconds", 10, "length of the measured phase")
		trace     = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics and ledger")
		workdir   = flag.String("workdir", filepath.Join(".bench_build", "perfbench", "work"), "directory for ledgers and span files")
		compare   = flag.Bool("compare", false, "compare two sets of result files (-a, -b) instead of running")
		aFiles    = flag.String("a", "", "with -compare: comma-separated globs of the parent's result files")
		bFiles    = flag.String("b", "", "with -compare: comma-separated globs of the change's result files")
		selfcheck = flag.Bool("selfcheck", false, "check that one seed repeats its deterministic counts and a second keeps the correctness totals")
	)
	flag.Parse()
	switch {
	case *compare:
		if err := compareMain("BENCHMARK.json", strings.Split(*aFiles, ","), strings.Split(*bFiles, ","), os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	case *selfcheck:
		if err := os.MkdirAll(*workdir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		names := []string{*name}
		if *name == "" {
			names = nil
			for _, w := range workloads {
				names = append(names, w.name)
			}
		}
		if !selfCheck(names, *seed, selfCheckOps, *workdir) {
			os.Exit(1)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("%sworkload=%s seed=%d seconds=%g trace=%d gomaxprocs=%d\n", headerPrefix, w.name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0))
	fmt.Printf("why: %s\n", w.why)
	var res result
	var err error
	if *trace == 1 {
		res, err = runTraced(w, *seed, *seconds, *workdir)
	} else {
		res, err = runTimed(w, *seed, *seconds, *workdir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.print()
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	problems  []string
}

func (r *result) print() {
	for name, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.problems = append(r.problems, fmt.Sprintf("metric %s has no value", name))
			m.Value = 0
			r.Metrics[name] = m
		}
	}
	if r.Attempted < 1 {
		r.Attempted = 1
		r.Failed = 1
		r.problems = append(r.problems, "no op completed")
	}
	r.Correct = r.Failed == 0 && len(r.problems) == 0
	for _, p := range r.problems {
		fmt.Println("MISMATCH:", p)
	}
	fmt.Printf("correct=%v attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// e2eMetrics are the end-to-end metrics of an untraced run, in
// BENCHMARK.json order.
var e2eMetrics = []struct{ name, unit string }{
	{"ops_per_s", "ops/s"},
	{"verdict_p50_us", "us"},
	{"transit_p50_us", "us"},
	{"setup_s", "s"},
	{"allocs_per_op", "count"},
	{"bytes_per_op", "B"},
	{"heap_retained_mb", "MiB"},
}

// setups is how many times a run builds its workload; setup_s is their
// median, and the last one runs the timed phase.
const setups = 11

// maxSlices bounds how many equal stretches of the timed phase the rate
// and percentiles are computed over; each reported value is the median
// over the stretches, so a burst of host noise in one cannot move it.
// A run uses fewer when a stretch would hold fewer than sliceSamples
// verdicts, so every stretch keeps ten samples beyond its p99.
const (
	maxSlices    = 10
	minSlices    = 3
	sliceSamples = 1200
)

func runTimed(w workloadDef, seed uint64, seconds float64, workdir string) (result, error) {
	var durs []float64
	var sys system
	var problems []string
	for i := 0; i < setups; i++ {
		s, d, probs, err := setup(w, seed, workdir, nil)
		if err != nil {
			return result{}, err
		}
		durs = append(durs, d.Seconds())
		problems = append(problems, probs...)
		if i < setups-1 {
			problems = append(problems, s.close()...)
		} else {
			sys = s
		}
	}
	runtime.GC()
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ph := newTimedPhase(time.Duration(seconds*float64(time.Second)), int(float64(w.rate)*seconds*2))
	sys.run(ph)
	runtime.ReadMemStats(&m1)
	runtime.GC()
	runtime.ReadMemStats(&m2)
	problems = append(problems, sys.close()...)
	problems = append(problems, ph.mismatches...)
	if ph.dropped > 0 {
		problems = append(problems, fmt.Sprintf("... and %d more", ph.dropped))
	}

	ops := ph.attempted()
	vals := map[string]float64{}
	fmt.Printf("setup_s          %.4f s (median of %d setups: %s)\n", median(durs), setups, fmtList(durs, "%.3f"))
	fmt.Printf("timed phase      %.2f s, %d ops attempted, %d failed, fail_frac %.4g\n",
		ph.end.Sub(ph.start).Seconds(), ops, ph.failed, float64(ph.failed)/math.Max(1, float64(ops)))
	sl := sliceStats(ph)
	vals["ops_per_s"] = median(sl.rate)
	fmt.Printf("ops_per_s        %.1f ops/s (median of %d slices: %s)\n", median(sl.rate), len(sl.rate), fmtList(sl.rate, "%.0f"))
	for _, m := range []struct {
		name string
		xs   [][]float64
	}{{"verdict", sl.verdict}, {"transit", sl.transit}} {
		// The p99 rows are printed, not gated: on a shared 2-vCPU host
		// their run-to-run spread exceeds any bound BENCHMARK.json allows.
		p50, p99, tail, n := slicePercentiles(m.xs)
		vals[m.name+"_p50_us"] = p50
		fmt.Printf("%s_p50_us   %.1f us, %s_p99_us %.1f us (p%.1f; %d samples, >= %d per slice; median of %d slices)\n",
			m.name, p50, m.name, p99, float64(tail)/10, n, minLen(m.xs), len(m.xs))
	}
	vals["setup_s"] = median(durs)
	perOp := func(v uint64) float64 { return float64(v) / math.Max(1, float64(ops)) }
	vals["allocs_per_op"] = perOp(m1.Mallocs - m0.Mallocs)
	vals["bytes_per_op"] = perOp(m1.TotalAlloc - m0.TotalAlloc)
	vals["heap_retained_mb"] = float64(m2.HeapAlloc) / (1 << 20)
	fmt.Printf("allocs_per_op    %.1f, bytes_per_op %.0f B, heap_retained_mb %.2f MiB\n",
		vals["allocs_per_op"], vals["bytes_per_op"], vals["heap_retained_mb"])
	fmt.Printf("fail_frac        %.4g (%d of %d ops)\n", float64(ph.failed)/math.Max(1, float64(ops)), ph.failed, ops)
	if rec, drop := ph.delta["audit_records"], ph.delta["audit_dropped"]; rec+drop > 0 {
		fmt.Printf("audit_drop_frac  %.4g (%d dropped, %d written)\n", float64(drop)/float64(rec+drop), drop, rec)
	}
	res := result{Attempted: ops, Failed: ph.failed, Metrics: map[string]metric{}, problems: problems}
	for _, m := range e2eMetrics {
		res.Metrics[m.name] = metric{vals[m.name], m.unit}
	}
	return res, nil
}

// sliced holds the timed phase cut into equal stretches by completion
// time.
type sliced struct {
	rate             []float64   // correct ops per second, per slice
	verdict, transit [][]float64 // sorted µs samples, per slice
}

// sliceStats cuts the phase into k stretches, k chosen so each holds
// about sliceSamples verdicts. A stretch's rate counts the correct ops
// completed in it over the time from the previous stretch's last
// completion to its own, so ops that complete in bursts (a whole
// appraisal window at once) carry no quantization error.
func sliceStats(ph *phase) sliced {
	verdicts := 0
	for _, s := range ph.samples {
		if s.verdict >= 0 {
			verdicts++
		}
	}
	k := verdicts / sliceSamples
	if k > maxSlices {
		k = maxSlices
	}
	if k < minSlices {
		k = minSlices
	}
	wall := int64(ph.end.Sub(ph.start))
	out := sliced{verdict: make([][]float64, k), transit: make([][]float64, k)}
	correct := make([]int, k)
	last := make([]int64, k) // latest completion in each slice
	for _, s := range ph.samples {
		i := int(int64(k) * s.done / wall)
		if i >= k {
			i = k - 1
		}
		if i < 0 {
			i = 0
		}
		if s.ok {
			correct[i]++
		}
		if s.done > last[i] {
			last[i] = s.done
		}
		if s.verdict >= 0 {
			out.verdict[i] = append(out.verdict[i], float64(s.verdict)/1e3)
		}
		if s.transit >= 0 {
			out.transit[i] = append(out.transit[i], float64(s.transit)/1e3)
		}
	}
	var prev int64
	for i := 0; i < k; i++ {
		if last[i] > prev {
			out.rate = append(out.rate, float64(correct[i])/(float64(last[i]-prev)/1e9))
			prev = last[i]
		}
		sort.Float64s(out.verdict[i])
		sort.Float64s(out.transit[i])
	}
	return out
}

// slicePercentiles returns the median over slices of each slice's p50
// and of its tail percentile: p99 when every slice has at least ten
// samples beyond it, else the highest lower rung that does.
func slicePercentiles(xs [][]float64) (p50, tail float64, permille, n int) {
	permille, ok := tailPermille(minLen(xs), 990)
	if !ok {
		return math.NaN(), math.NaN(), 0, 0
	}
	var p50s, tails []float64
	for _, s := range xs {
		n += len(s)
		p50s = append(p50s, percentile(s, 500))
		tails = append(tails, percentile(s, permille))
	}
	return median(p50s), median(tails), permille, n
}

func minLen(xs [][]float64) int {
	m := -1
	for _, s := range xs {
		if m < 0 || len(s) < m {
			m = len(s)
		}
	}
	if m < 0 {
		return 0
	}
	return m
}

func fmtList(xs []float64, f string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(f, x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// keysOf returns the verification keys of the system's switches.
func keysOf(sys system) evidence.KeyMap {
	switch s := sys.(type) {
	case *inband:
		return s.tb.Keys()
	case *oob:
		return s.tb.Keys()
	}
	return nil
}
