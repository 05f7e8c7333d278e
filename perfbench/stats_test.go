package main

import (
	"math"
	"testing"
)

func TestTailPermilleNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n, limit int
		want     int
		ok       bool
	}{
		{n: 10000, limit: 999, want: 999, ok: true}, // 10 beyond p99.9
		{n: 9999, limit: 999, want: 990, ok: true},  // p99.9 leaves 9
		{n: 10000, limit: 990, want: 990, ok: true}, // capped at p99
		{n: 1000, limit: 990, want: 990, ok: true},  // exactly 10 beyond
		{n: 999, limit: 990, want: 900, ok: true},   // p99 leaves 9
		{n: 100, limit: 990, want: 900, ok: true},
		{n: 99, limit: 990, want: 500, ok: true},
		{n: 20, limit: 990, want: 500, ok: true},
		{n: 19, limit: 990, ok: false},
		{n: 0, limit: 990, ok: false},
	}
	for _, c := range cases {
		got, ok := tailPermille(c.n, c.limit)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("tailPermille(%d, %d) = %d, %v; want %d, %v", c.n, c.limit, got, ok, c.want, c.ok)
		}
		if ok && beyond(c.n, got) < minBeyond {
			t.Errorf("n=%d: p%d leaves %d beyond", c.n, got, beyond(c.n, got))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if got := percentile(s, 990); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := percentile(s, 500); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
	if got := percentile([]float64{7}, 999); got != 7 {
		t.Errorf("p99.9 of one sample = %v", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if math.Abs(q1-2.75) > 1e-12 || math.Abs(q3-8.25) > 1e-12 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles = %v, %v; want 1.5, 12", q1, q3)
	}
}
