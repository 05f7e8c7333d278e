package main

import (
	"strings"
	"testing"
)

func TestDecideVerdicts(t *testing.T) {
	a := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	cases := []struct {
		name        string
		win, lo, hi float64
		better      string
		bound       float64
		b           []float64
		want        string
	}{
		{"faster on lower-better", 1.0, 0.80, 0.85, "lower", 0.1, scaled(a, 0.82), vImproved},
		{"faster but too few pair wins", 0.8, 0.80, 0.85, "lower", 0.1, scaled(a, 0.82), vNoWorse},
		{"gap inside A's own spread", 1.0, 0.985, 0.995, "lower", 0.1, scaled(a, 0.99), vNoWorse},
		{"slower beyond bound", 0.0, 1.20, 1.30, "lower", 0.1, scaled(a, 1.25), vWorse},
		{"slower within bound", 0.0, 1.02, 1.05, "lower", 0.1, scaled(a, 1.03), vNoWorse},
		{"interval straddles the bound", 0.0, 1.05, 1.15, "lower", 0.1, scaled(a, 1.1), vUnresolved},
		{"higher-better throughput drop", 0.0, 0.70, 0.80, "higher", 0.1, scaled(a, 0.75), vWorse},
		{"higher-better throughput gain", 1.0, 1.20, 1.30, "higher", 0.1, scaled(a, 1.25), vImproved},
		{"no bound: any worsening interval above 1", 0.0, 1.01, 1.02, "lower", 0, scaled(a, 1.015), vWorse},
	}
	for _, c := range cases {
		if got := decide(a, c.b, c.win, c.lo, c.hi, c.better, c.bound); got != c.want {
			t.Errorf("%s: decide = %s, want %s", c.name, got, c.want)
		}
	}
}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestBootstrapRatioBracketsTrueRatio(t *testing.T) {
	a := []float64{10, 11, 9, 10, 12, 8, 10, 11, 9, 10}
	lo, hi := bootstrapRatio(a, scaled(a, 2), 2000)
	if !(lo <= 2 && 2 <= hi) {
		t.Errorf("CI [%v, %v] misses the true ratio 2", lo, hi)
	}
}

func TestWinShareIgnoresTies(t *testing.T) {
	if got := winShare([]float64{1, 2, 3, 4}, []float64{0, 2, 2, 5}, "lower"); got != 0.5 {
		t.Errorf("winShare = %v, want 0.5", got)
	}
}

func TestParseResult(t *testing.T) {
	out := headerPrefix + "workload=oob-rats seed=4 seconds=10 trace=0\nsome text\n" +
		`{"correct": true, "attempted": 10, "failed": 0, "metrics": {"ops_per_s": {"value": 12.5, "unit": "ops/s"}}}` + "\n"
	r, err := parseResult(strings.NewReader(out), "x")
	if err != nil {
		t.Fatal(err)
	}
	if r.Workload != "oob-rats" || r.Seed != "4" || r.Trace != "0" || !r.Correct || r.Metrics["ops_per_s"] != 12.5 {
		t.Errorf("parsed %+v", r)
	}
}
