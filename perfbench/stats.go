package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples a reported tail percentile must
// leave above it: a p99 over fewer than 1000 samples is a guess.
const minBeyond = 10

// tailLadder lists the percentiles, in permille, a report may use for a
// tail, highest first.
var tailLadder = []int{999, 990, 900, 500}

// rank returns the 1-based nearest-rank index of the permille-th
// percentile in n sorted samples. Integer arithmetic keeps p99 of 1000
// samples at rank 990 exactly.
func rank(n, permille int) int {
	r := (permille*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond returns how many of n samples lie above the permille-th
// percentile.
func beyond(n, permille int) int { return n - rank(n, permille) }

// tailPermille returns the highest percentile in tailLadder, not above
// limit, that leaves at least minBeyond samples above it. ok is false
// when no rung does.
func tailPermille(n, limit int) (permille int, ok bool) {
	for _, p := range tailLadder {
		if p > limit {
			continue
		}
		if beyond(n, p) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// percentile returns the permille-th nearest-rank percentile of sorted.
func percentile(sorted []float64, permille int) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), permille)-1]
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the median of xs (mean of the middle pair for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// so spreads printed here match the acceptance check's arithmetic.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// relSpread is the interquartile distance as a share of the median.
func relSpread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	med := median(xs)
	if med == 0 {
		return math.Inf(1)
	}
	return math.Abs(q3-q1) / math.Abs(med)
}
