package main

import (
	"fmt"
	"sort"
	"strings"
)

// Seed self-check: one seed must give identical deterministic counts on
// two fresh runs of the same size, and a second seed must give the same
// correctness totals (every op attempted, none failed, every forgery
// rejected where expected).

// timingKeys are counters whose split depends on goroutine timing, not
// on the inputs: which audit records the writer had written versus
// dropped when the phase ended (their sum, audit_emitted, is checked).
var timingKeys = map[string]bool{"audit_records": true, "audit_dropped": true, "audit_bytes": true}

// selfCheckOps is the op count of each self-check run.
const selfCheckOps = 1024

type fixedRun struct {
	delta     counts
	attempted int
	failed    int
	problems  []string
}

func runFixed(w workloadDef, seed uint64, ops int, workdir string) (fixedRun, error) {
	sys, _, problems, err := setup(w, seed, workdir, nil)
	if err != nil {
		return fixedRun{}, err
	}
	ph := newFixedPhase(ops)
	sys.run(ph)
	problems = append(problems, sys.close()...)
	problems = append(problems, ph.mismatches...)
	return fixedRun{delta: ph.delta, attempted: ph.attempted(), failed: ph.failed, problems: problems}, nil
}

func selfCheck(names []string, seed uint64, ops int, workdir string) bool {
	ok := true
	for _, name := range names {
		w, found := findWorkload(name)
		if !found {
			fmt.Printf("selfcheck: unknown workload %q\n", name)
			return false
		}
		var runs [3]fixedRun
		for i, s := range []uint64{seed, seed, seed + 1} {
			r, err := runFixed(w, s, ops, workdir)
			if err != nil {
				fmt.Printf("selfcheck %s: %v\n", name, err)
				return false
			}
			runs[i] = r
		}
		fmt.Printf("selfcheck %s: %d ops per run, seeds %d, %d, %d\n", name, ops, seed, seed, seed+1)
		var keys []string
		for k := range runs[0].delta {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var diffs []string
		for _, k := range keys {
			a, b, c := runs[0].delta[k], runs[1].delta[k], runs[2].delta[k]
			mark := ""
			if a != b && !timingKeys[k] {
				mark = "  <- differs for one seed"
				diffs = append(diffs, k)
			}
			fmt.Printf("  %-28s %10d %10d %10d%s\n", k, a, b, c, mark)
		}
		for i, r := range runs {
			if r.attempted < ops || r.failed != 0 || len(r.problems) != 0 {
				fmt.Printf("  run %d: %d attempted, %d failed: %s\n", i+1, r.attempted, r.failed, strings.Join(r.problems, "; "))
				diffs = append(diffs, fmt.Sprintf("correctness of run %d", i+1))
			}
		}
		if len(diffs) > 0 {
			ok = false
			fmt.Printf("  FAIL: %s\n", strings.Join(diffs, ", "))
		} else {
			fmt.Printf("  PASS\n")
		}
	}
	return ok
}
