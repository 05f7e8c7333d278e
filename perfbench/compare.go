package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Paired comparison of two sets of benchmark runs (A = parent, B =
// change). Each result file is one run's standard output: its header
// line names the workload and seed, its last line is the result JSON.
// Runs pair by (workload, trace, seed). For every metric BENCHMARK.json
// declares, the comparison prints each side's median and quartiles, the
// share of pairs B wins, a bootstrap 95% interval of the ratio of
// medians B/A, and a verdict under the metric's own bound.

// benchSpec is the part of BENCHMARK.json the comparison needs.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (benchSpec, error) {
	var s benchSpec
	raw, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(raw, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// runResult is one parsed result file.
type runResult struct {
	Workload, Seed, Trace string
	Correct               bool
	Metrics               map[string]float64
}

type resultLine struct {
	Correct bool `json:"correct"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func readResult(path string) (runResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return runResult{}, err
	}
	defer f.Close()
	return parseResult(f, path)
}

func parseResult(r io.Reader, name string) (runResult, error) {
	var res runResult
	var last string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		last = line
		if strings.HasPrefix(line, headerPrefix) {
			for _, kv := range strings.Fields(line[len(headerPrefix):]) {
				k, v, _ := strings.Cut(kv, "=")
				switch k {
				case "workload":
					res.Workload = v
				case "seed":
					res.Seed = v
				case "trace":
					res.Trace = v
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return res, fmt.Errorf("%s: %w", name, err)
	}
	if res.Workload == "" {
		return res, fmt.Errorf("%s: no %q header line", name, headerPrefix)
	}
	var rl resultLine
	if err := json.Unmarshal([]byte(last), &rl); err != nil {
		return res, fmt.Errorf("%s: last line is not a result: %w", name, err)
	}
	res.Correct = rl.Correct
	res.Metrics = make(map[string]float64, len(rl.Metrics))
	for k, v := range rl.Metrics {
		res.Metrics[k] = v.Value
	}
	return res, nil
}

// Verdicts of the paired comparison.
const (
	vImproved   = "improved"
	vNoWorse    = "no-worse"
	vWorse      = "worse"
	vUnresolved = "unresolved"
)

// decide renders the verdict for one (workload, metric). ciLo/ciHi bound
// the ratio of medians B/A; winShare is the share of pairs in which B
// read better (ties count for neither); bound is the share by which B
// may be worse before it counts as a regression (0 for metrics without
// one).
//
//   - improved: the whole interval lies on the better side of 1, B won
//     at least nine pairs in ten, and the medians differ by more than
//     A's own interquartile distance.
//   - worse: the whole interval lies beyond the bound on the worse side.
//   - no-worse: the whole interval lies within the bound.
//   - unresolved: anything else — the runs cannot tell.
func decide(a, b []float64, winShare, ciLo, ciHi float64, better string, bound float64) string {
	// badness > 1 means B is worse, whatever the metric's direction.
	bLo, bHi := ciLo, ciHi
	if better == "higher" {
		bLo, bHi = 1/ciHi, 1/ciLo
	}
	q1, q3 := quartiles(a)
	gap := math.Abs(median(b) - median(a))
	switch {
	case bHi < 1 && winShare >= 0.9 && gap > q3-q1:
		return vImproved
	case bLo > 1+bound:
		return vWorse
	case bHi <= 1+bound:
		return vNoWorse
	default:
		return vUnresolved
	}
}

// bootstrapRatio returns the 2.5th and 97.5th percentiles of
// median(B*)/median(A*) over resamples drawn with a fixed seed.
func bootstrapRatio(a, b []float64, resamples int) (lo, hi float64) {
	rng := rand.New(rand.NewSource(1))
	ratios := make([]float64, resamples)
	ra := make([]float64, len(a))
	rb := make([]float64, len(b))
	for i := range ratios {
		for j := range ra {
			ra[j] = a[rng.Intn(len(a))]
		}
		for j := range rb {
			rb[j] = b[rng.Intn(len(b))]
		}
		ratios[i] = median(rb) / median(ra)
	}
	sort.Float64s(ratios)
	return percentile(ratios, 25), percentile(ratios, 975)
}

// winShare returns the share of pairs in which b[i] reads better than
// a[i].
func winShare(a, b []float64, better string) float64 {
	if len(a) == 0 {
		return 0
	}
	wins := 0
	for i := range a {
		if (better == "higher" && b[i] > a[i]) || (better != "higher" && b[i] < a[i]) {
			wins++
		}
	}
	return float64(wins) / float64(len(a))
}

// compareMain loads both sets of result files and prints one row per
// (workload, metric).
func compareMain(specPath string, aPatterns, bPatterns []string, out io.Writer) error {
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	load := func(patterns []string) (map[string]map[string]runResult, error) {
		sets := map[string]map[string]runResult{} // "workload trace=t" -> seed -> run
		for _, pat := range patterns {
			paths, err := filepath.Glob(pat)
			if err != nil {
				return nil, err
			}
			for _, p := range paths {
				r, err := readResult(p)
				if err != nil {
					return nil, err
				}
				if !r.Correct {
					return nil, fmt.Errorf("%s: run reported correct=false", p)
				}
				key := r.Workload + " trace=" + r.Trace
				if sets[key] == nil {
					sets[key] = map[string]runResult{}
				}
				sets[key][r.Seed] = r
			}
		}
		return sets, nil
	}
	as, err := load(aPatterns)
	if err != nil {
		return err
	}
	bs, err := load(bPatterns)
	if err != nil {
		return err
	}
	keys := make([]string, 0, len(as))
	for k := range as {
		if bs[k] != nil {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	if len(keys) == 0 {
		return fmt.Errorf("no workload has runs on both sides")
	}
	metrics := append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...)
	fmt.Fprintf(out, "%-28s %-26s %5s %12s %12s %12s %12s %6s %17s %s\n",
		"workload", "metric", "pairs", "A median", "A IQR", "B median", "B IQR", "B wins", "B/A 95% CI", "verdict")
	for _, k := range keys {
		var seeds []string
		for s := range as[k] {
			if _, ok := bs[k][s]; ok {
				seeds = append(seeds, s)
			}
		}
		sort.Strings(seeds)
		for _, m := range metrics {
			var a, b []float64
			for _, s := range seeds {
				av, aok := as[k][s].Metrics[m.Name]
				bv, bok := bs[k][s].Metrics[m.Name]
				if aok && bok {
					a, b = append(a, av), append(b, bv)
				}
			}
			if len(a) == 0 {
				continue
			}
			aq1, aq3 := quartiles(a)
			bq1, bq3 := quartiles(b)
			share := winShare(a, b, m.Better)
			lo, hi := math.NaN(), math.NaN()
			v := vUnresolved
			if median(a) != 0 && median(b) != 0 {
				lo, hi = bootstrapRatio(a, b, 2000)
				v = decide(a, b, share, lo, hi, m.Better, m.Bound)
			}
			fmt.Fprintf(out, "%-28s %-26s %5d %12.4g %12.4g %12.4g %12.4g %5.0f%% [%7.4f, %7.4f] %s\n",
				k, m.Name, len(a), median(a), aq3-aq1, median(b), bq3-bq1, 100*share, lo, hi, v)
		}
	}
	return nil
}
