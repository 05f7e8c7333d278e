package main

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// A phase is one stretch of closed-loop ops: time-bounded (the timed
// phase) or a fixed op count (warm-up, the traced phase, the seed
// self-check). Workloads record one sample per op into it and compare
// their expected counts against the layers' own counters at its end.
type phase struct {
	start    time.Time
	end      time.Time // set when the phase finishes
	deadline time.Time // time-bounded phases stop at the first op boundary past it
	limit    int       // fixed-size phases stop after this many ops (0: time-bounded)

	mu         sync.Mutex
	samples    []sample
	failed     int
	mismatches []string
	dropped    int    // mismatches counted but not kept
	delta      counts // the layers' counters over the phase
}

// sample is one op's outcome. Durations are ns; -1 marks a sample the
// op does not produce (no verdict on an unsampled packet, no transit on
// an out-of-band round's appraisal, ...).
type sample struct {
	done    int64 // completion, ns since phase start
	verdict int64 // op start -> verdict
	transit int64 // one Send of the attested frame (or the challenge call)
	ok      bool
}

const keepMismatches = 20

func newTimedPhase(d time.Duration, capacity int) *phase {
	now := time.Now()
	return &phase{start: now, deadline: now.Add(d), samples: make([]sample, 0, capacity)}
}

func newFixedPhase(ops int) *phase {
	return &phase{start: time.Now(), limit: ops, samples: make([]sample, 0, ops+128)}
}

// more reports whether an op may start after started ops.
func (p *phase) more(started int) bool {
	if p.limit > 0 {
		return started < p.limit
	}
	return time.Now().Before(p.deadline)
}

// since returns ns since the phase start.
func (p *phase) since(t time.Time) int64 { return int64(t.Sub(p.start)) }

func (p *phase) record(s sample) {
	p.mu.Lock()
	p.samples = append(p.samples, s)
	if !s.ok {
		p.failed++
	}
	p.mu.Unlock()
}

// mismatch records a wrong outcome the oracle caught. Each one counts as
// a failed op, so it reaches fail_frac.
func (p *phase) mismatch(format string, args ...any) {
	p.mu.Lock()
	p.failed++
	p.mu.Unlock()
	p.mismatchNote(format, args...)
}

// fail records a failed op with the reason.
func (p *phase) fail(done time.Time, format string, args ...any) {
	p.record(sample{done: p.since(done), verdict: -1, transit: -1})
	p.mismatchNote(format, args...)
}

// mismatchNote keeps the reason of a failure its op's sample counts.
func (p *phase) mismatchNote(format string, args ...any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.mismatches) < keepMismatches {
		p.mismatches = append(p.mismatches, fmt.Sprintf(format, args...))
	} else {
		p.dropped++
	}
}

func (p *phase) attempted() int { return len(p.samples) }

// counts are named counter values or deltas.
type counts map[string]uint64

// sub returns c - base per key of c.
func (c counts) sub(base counts) counts {
	out := counts{}
	for k, v := range c {
		out[k] = v - base[k]
	}
	return out
}

// inputPrefix marks expected counts that describe the generated inputs
// (forgeries injected, packets sampled) rather than a layer counter;
// expect copies them into the deltas for the seed self-check.
const inputPrefix = "input."

// expect compares the expected counts against the measured deltas and
// records every difference as a mismatch.
func (p *phase) expect(exp counts) {
	keys := make([]string, 0, len(exp))
	for k, v := range exp {
		if strings.HasPrefix(k, inputPrefix) {
			p.delta[k] = v
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got := p.delta[k]; got != exp[k] {
			p.mismatch("count %s: expected %d, measured %d", k, exp[k], got)
		}
	}
}
