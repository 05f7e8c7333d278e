package main

import (
	"encoding/json"
	"fmt"
	"os"

	"pera/internal/harness"
	"pera/internal/observatory"
)

// runObserve drives the observatory scenario: attested UC1 traffic over
// a linear chain with in-band hop spans, the out-of-band collector on
// all three feeds, a mid-run Athens program swap, and compromise
// localization. Human-readable tables go to stdout (stderr in machine
// modes); -json writes the collector snapshot to stdout; with
// -telemetry the collector also serves /observatory.json live.
func runObserve() error {
	out := os.Stderr
	fmt.Fprintln(out, "== Observatory: in-band hop spans, collector, compromise localization ==")
	attack := *observeAttack
	opts := harness.ObserveOptions{
		Hops:        *observeHops,
		Packets:     *observePkts,
		SampleEvery: uint32(*observeSample),
		ByteBudget:  *observeBudget,
		Collector:   collector,
		Registry:    reg,
		Tracer:      tracer,
		Audit:       audit,
		Recorder:    plane.Recorder,
	}
	switch attack {
	case "none":
		opts.AttackAfter = -1
	case "":
	default:
		opts.AttackSwitch = attack
	}
	fmt.Fprintf(out, "chain: bank — sw1..sw%d — client, %d packets, span sampling 1-in-%d\n",
		opts.Hops, opts.Packets, *observeSample)
	res, err := harness.RunObserve(opts)
	if err != nil {
		return err
	}
	if res.AttackAt >= 0 {
		fmt.Fprintf(out, "adversary swapped %s's program after packet %d\n", res.AttackSwitch, res.AttackAt)
	}
	fmt.Fprintf(out, "verdicts: %d PASS, %d FAIL\n", res.Pass, res.Fail)
	if loc := res.Localization; loc != nil {
		fmt.Fprintf(out, "localized: %s at packet %d (%s)\n", loc.Place, res.LocalizedAt, loc.Reason)
	} else {
		fmt.Fprintln(out, "localized: nothing (no anomaly)")
	}

	snap := res.Collector.Snapshot()
	table := os.Stdout
	if *jsonOut || reg != nil {
		table = os.Stderr
	}
	fmt.Fprintln(table)
	observatory.RenderTop(table, snap)
	fmt.Fprintln(table)
	observatory.RenderPaths(table, snap, 3)

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(snap)
	}
	return nil
}
