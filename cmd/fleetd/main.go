// Command fleetd is the fleet-wide attestation observability control
// plane: it scrapes the telemetry surfaces of many attestation
// processes (attestd, appraised, perasim — anything serving
// /metrics.json) on a cadence, merges them into one fleet model, and
// serves:
//
//	/fleet.json   the merged view: global trust map, per-target scrape
//	              health, fleet findings (status conflicts, dead
//	              targets), deduplicated alert feed, rollup
//	/metrics      pera_fleet_* rollup + per-target series — a Prometheus
//	              federation endpoint: one scrape covers the fleet
//
// Targets come from -targets (static, comma-separated name=url or bare
// URLs) and/or -targets-file (one per line, #-comments; re-read when
// its mtime changes, so targets can be added or drained without a
// restart — file entries win on name collision).
//
// Usage:
//
//	fleetd -targets sim1=http://127.0.0.1:9464,sim2=http://127.0.0.1:9465 -listen :9470
//	fleetd -targets-file fleet.targets -interval 2s -listen :9470
//
// Inspect with `attestctl fleet status|top|targets -fleet http://127.0.0.1:9470`.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pera/cmd/internal/bootstrap"
	"pera/internal/fleetscope"
	"pera/internal/telemetry"
)

func main() {
	var (
		targetsFlag = flag.String("targets", "", "comma-separated scrape targets (name=url or bare URL)")
		targetsFile = flag.String("targets-file", "", "targets file (one name=url per line, # comments), re-read on mtime change")
		name        = flag.String("name", "fleet", "fleet name stamped on views and renders")
		listen      = flag.String("listen", "127.0.0.1:9470", "serve /fleet.json and /metrics on this address (:0 picks a port)")
		interval    = flag.Duration("interval", time.Second, "per-target scrape interval")
		timeout     = flag.Duration("timeout", 2*time.Second, "per-target scrape timeout")
		downAfter   = flag.Int("down-after", 2, "consecutive scrape failures before a target is down")
		obsFlags    = bootstrap.Register(flag.CommandLine, bootstrap.Profile)
	)
	flag.Parse()

	static, err := fleetscope.ParseTargets(*targetsFlag)
	if err != nil {
		fatal("-targets: %v", err)
	}
	if *targetsFile != "" {
		if _, err := fleetscope.LoadTargetsFile(*targetsFile); err != nil {
			fatal("-targets-file: %v", err)
		}
	}
	if len(static) == 0 && *targetsFile == "" {
		fatal("no targets: need -targets and/or -targets-file")
	}

	agg := fleetscope.New(fleetscope.Config{
		Name:        *name,
		Interval:    *interval,
		Timeout:     *timeout,
		DownAfter:   *downAfter,
		TargetsFile: *targetsFile,
	}, static)

	o, err := obsFlags.Setup(bootstrap.Options{Name: "fleetd", Service: "fleetd/" + *name, Log: os.Stdout, Registry: true})
	if err != nil {
		fatal("%v", err)
	}
	defer o.Close()
	agg.Instrument(o.Registry)
	agg.Start()
	defer agg.Close()
	if err := o.Start(); err != nil {
		fatal("%v", err)
	}
	// fleetd serves its own registry — the fleet rollup — on -listen.
	srv, err := telemetry.Serve(*listen, o.Registry, nil, append([]telemetry.Endpoint{agg.Endpoint()}, o.Endpoints()...)...)
	if err != nil {
		fatal("%v", err)
	}
	defer srv.Close()
	fmt.Printf("fleetd: %d targets, scraping every %v\n", len(agg.Targets()), *interval)
	for _, t := range agg.Targets() {
		fmt.Printf("fleetd:   %s -> %s\n", t.Name, t.URL)
	}
	fmt.Printf("fleetd: serving fleet view on http://%s%s\n", srv.Addr(), fleetscope.FleetPath)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("fleetd: shutting down")
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "fleetd: "+format+"\n", args...)
	os.Exit(1)
}
