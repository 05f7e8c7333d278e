// Command perasim runs the paper's use cases end to end on the simulated
// testbed (bank — firewall — acl — dpi — edge — client) and prints what
// happened: the evidence gathered, the appraisal verdicts, and the attack
// detections.
//
// Usage:
//
//	perasim -uc 1      # configuration assurance + Athens-affair swap
//	perasim -uc 2      # path evidence as an authentication factor
//	perasim -uc 3      # path evidence as an authorization tag (DDoS)
//	perasim -uc 4      # audit trail for C2 fingerprinting
//	perasim -uc 5      # cross-referenced host+network attestation
//	perasim -uc all      # use cases 1-5
//	perasim -uc monitor  # continuous assessment with a mid-run swap
//	perasim -uc throughput -workers 4 -packets 2000 -flows 50
//	                     # concurrent appraisal pipeline sweep
//
// Observability (see docs/METRICS.md):
//
//	perasim -uc throughput -telemetry :9464
//	                     # serve /metrics, /metrics.json and /trace live,
//	                     # then print a Prometheus-text dump on stdout
//	perasim -uc throughput -telemetry :0 -telemetry-hold -trace 1
//	                     # pick a free port, trace every flow, keep the
//	                     # endpoint up after the run until interrupted
//	perasim -uc throughput -json > results.json
//	                     # machine-readable results + telemetry snapshot
//	perasim -uc 1 -audit trail.jsonl
//	                     # write every RATS lifecycle event to a
//	                     # hash-chained ledger; inspect with
//	                     # attestctl audit verify/query/explain
//	perasim -observe -observe-hops 4 -observe-sample 1
//	                     # observatory: linear UC1 chain with in-band hop
//	                     # spans, out-of-band collector, mid-run program
//	                     # swap and compromise localization; with
//	                     # -telemetry the collector serves
//	                     # /observatory.json (watch with attestctl top)
//	perasim -slo -slo-freeze 16 -slo-recover 96
//	                     # trust decay: freeze one switch's re-attestation
//	                     # mid-run, watch the freshness watchdog burn its
//	                     # SLO, fire an alert, probe the dark device and
//	                     # resolve after recovery; with -telemetry the
//	                     # watchdog serves /coverage.json and /alerts.json
//	                     # (inspect with attestctl coverage / alerts)
//	perasim -uc throughput -telemetry :9464 -pprof
//	                     # additionally expose /debug/pprof/* on the
//	                     # telemetry server (off by default)
//	perasim -uc throughput -profile -telemetry :0 -telemetry-hold
//	                     # continuous profiler: stage-attributed CPU at
//	                     # /profile.json, raw pprof artifacts at
//	                     # /profile/pprof (inspect with attestctl profile)
//
// In throughput mode all progress text goes to stderr, so stdout is
// clean Prometheus text (-telemetry), JSON (-json) or the results table.
//
// -cpuprofile / -memprofile write pprof profiles for any use case.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"pera/cmd/internal/bootstrap"
	"pera/internal/appraiser"
	"pera/internal/attester"
	"pera/internal/auditlog"
	"pera/internal/evidence"
	"pera/internal/freshness"
	"pera/internal/harness"
	"pera/internal/nac"
	"pera/internal/observatory"
	"pera/internal/pera"
	"pera/internal/telemetry"
	"pera/internal/usecases"
)

var (
	workers = flag.Int("workers", 0, "appraisal pool width for -uc throughput; 0 sweeps 1,2,4,8")
	packets = flag.Int("packets", 2000, "packets to appraise in -uc throughput")
	flows   = flag.Int("flows", 50, "distinct flows in the -uc throughput corpus")
	memoOff = flag.Bool("no-memo", false, "disable verification memoization in -uc throughput")

	telemetryHold = flag.Bool("telemetry-hold", false, "with -telemetry: keep serving after the run completes, until interrupted")
	jsonOut       = flag.Bool("json", false, "with -uc throughput/observe: write JSON results to stdout")
	obsFlags      = bootstrap.Register(flag.CommandLine,
		bootstrap.Telemetry|bootstrap.Pprof|bootstrap.Trace|bootstrap.Audit|bootstrap.Recorder|bootstrap.Profile)

	observe       = flag.Bool("observe", false, "run the observatory scenario (shorthand for -uc observe)")
	observeHops   = flag.Int("observe-hops", 4, "switches on the observatory's linear chain")
	observePkts   = flag.Int("observe-packets", 96, "attested packets to drive through the observatory run")
	observeSample = flag.Uint("observe-sample", 1, "hop-span 1-in-N flow sampling (Fig. 4 Inertia knob; 1 spans every flow)")
	observeBudget = flag.Int("observe-budget", 0, "in-band span-section byte budget (Fig. 4 Detail knob; 0 = default)")
	observeAttack = flag.String("observe-attack", "", "switch to program-swap mid-run (default the middle hop; 'none' disables)")

	slo         = flag.Bool("slo", false, "run the trust-decay scenario (shorthand for -uc slo)")
	sloHops     = flag.Int("slo-hops", 4, "switches on the trust-decay run's linear chain")
	sloPkts     = flag.Int("slo-packets", 160, "attested packets to drive through the trust-decay run")
	sloFreeze   = flag.Int("slo-freeze", 16, "freeze the target switch's re-attestation after this many packets (negative disables)")
	sloFreezeSw = flag.String("slo-freeze-switch", "", "switch to freeze (default the middle hop)")
	sloRecover  = flag.Int("slo-recover", 96, "restore the frozen switch at this packet and probe the firing alerts (negative disables; alerts stay firing)")
	sloTTL      = flag.Int("slo-ttl", 16, "evidence cache TTL in simulated seconds (Fig. 4 Inertia knob; the staleness budget derives from it)")
	sloTick     = flag.Int("slo-tick", 1, "simulated seconds per packet")

	// Telemetry plumbing shared by the runners; nil when not requested.
	plane     *bootstrap.Obs
	reg       *telemetry.Registry
	tracer    *telemetry.FlowTracer
	audit     *auditlog.Writer
	collector *observatory.Collector
	watchdog  *freshness.Watchdog
)

func main() {
	uc := flag.String("uc", "all", "use case to run: 1..5, all, monitor, throughput, observe or slo")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file")
	flag.Parse()
	if *observe {
		*uc = "observe"
	}
	if *slo {
		*uc = "slo"
	}

	if *uc == "observe" || *uc == "slo" {
		collector = observatory.New("collector", observatory.Config{})
	}
	if *uc == "slo" {
		// Created up front so /coverage.json and /alerts.json are live
		// from the first packet; RunSLO reconfigures it onto the
		// simulated clock.
		watchdog = freshness.New("watchdog", freshness.Config{})
	}
	var endpoints []telemetry.Endpoint
	if collector != nil {
		endpoints = append(endpoints, collector.Endpoint())
	}
	endpoints = append(endpoints, watchdog.Endpoints()...)
	o, err := obsFlags.Setup(bootstrap.Options{
		Name: "perasim", Service: "perasim", Log: os.Stderr,
		Registry: *jsonOut, AuditKeyID: "dev", HoldProfiler: *uc == "throughput",
	})
	if err != nil {
		fail(err)
	}
	defer o.Close()
	plane, reg, tracer, audit = o, o.Registry, o.Tracer, o.Audit
	o.Recorder.SetCollector(collector)
	o.Recorder.SetWatchdog(watchdog)
	if o.Recorder != nil && watchdog != nil {
		// Alert firings capture incident bundles too.
		watchdog.AddSink(o.Recorder.Sink())
	}
	if err := o.Start(endpoints...); err != nil {
		fail(err)
	}
	if o.Profiler != nil && *uc == "throughput" {
		fmt.Fprintln(os.Stderr, "perasim: continuous profiler on — capturing the timed appraisal phase")
	}
	if audit != nil {
		// Flush-on-shutdown: an interrupt mid-run still leaves a complete,
		// verifiable chain on disk rather than a truncated record.
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sig
			fmt.Fprintln(os.Stderr, "perasim: interrupted — flushing audit ledger")
			audit.Close()
			if reg != nil {
				// Same one-shot exposition dump a completed run would
				// print, so an interrupted run still leaves usable data.
				reg.Snapshot().WritePrometheus(os.Stdout)
			}
			os.Exit(130)
		}()
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memprofile == "" {
			return
		}
		f, err := os.Create(*memprofile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fail(err)
		}
	}()

	runners := map[string]func() error{
		"1": runUC1, "2": runUC2, "3": runUC3, "4": runUC4, "5": runUC5,
		"monitor": runMonitor, "throughput": runThroughput, "observe": runObserve,
		"slo": runSLO,
	}
	if *uc == "all" {
		for _, k := range []string{"1", "2", "3", "4", "5"} {
			if err := runners[k](); err != nil {
				fail(err)
			}
			fmt.Println()
		}
		plane.SealAudit()
		holdTelemetry()
		return
	}
	r, ok := runners[*uc]
	if !ok {
		fmt.Fprintf(os.Stderr, "perasim: unknown use case %q\n", *uc)
		os.Exit(2)
	}
	if err := r(); err != nil {
		fail(err)
	}
	// Seal the ledger as soon as the run completes, so the file on disk
	// is complete and verifiable even while -telemetry-hold keeps the
	// process alive.
	plane.SealAudit()
	holdTelemetry()
}

// holdTelemetry keeps the telemetry endpoint alive after the run when
// -telemetry-hold is set, so scrapers (and the telemetry-smoke target)
// read final counters instead of racing the run.
func holdTelemetry() {
	if plane.Server == nil || !*telemetryHold {
		return
	}
	fmt.Fprintf(os.Stderr, "perasim: run complete; telemetry still serving on http://%s/metrics (interrupt to exit)\n", plane.Server.Addr())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "perasim: %v\n", err)
	os.Exit(1)
}

func newTB() (*usecases.Testbed, error) {
	tb, err := usecases.NewTestbed(pera.Config{InBand: true, Composition: evidence.Chained})
	if err != nil {
		return nil, err
	}
	// With telemetry requested, every use-case testbed reports in too.
	if reg != nil {
		for _, sw := range tb.Switches {
			sw.Instrument(reg)
		}
		tb.Net.Instrument(reg)
		tb.Appraiser.Instrument(reg)
		tracer.Instrument(reg)
	}
	if tracer != nil {
		for _, sw := range tb.Switches {
			sw.SetTracer(tracer)
		}
	}
	if audit != nil {
		for _, sw := range tb.Switches {
			sw.SetAudit(audit)
		}
		tb.Appraiser.SetAudit(audit)
		tb.Appraiser.SetPolicy("AP1", nac.AP1)
	}
	return tb, nil
}

func verdict(c *appraiser.Certificate) string {
	if c.Verdict {
		return "PASS"
	}
	return "FAIL"
}

func runUC1() error {
	fmt.Println("== UC1: Configuration Assurance (Athens-affair detection) ==")
	tb, err := newTB()
	if err != nil {
		return err
	}
	res, err := usecases.RunUC1Round(tb, []byte("uc1-honest"))
	if err != nil {
		return err
	}
	fmt.Printf("honest path:   %s — hop programs %v (%s)\n",
		verdict(res.Certificate), res.HopPrograms, res.Certificate.Reason)

	if err := usecases.AthensSwap(tb, usecases.SwEdge, 9); err != nil {
		return err
	}
	fmt.Println("adversary swapped sw3's forwarder for a same-named mirroring rogue")
	res, err = usecases.RunUC1Round(tb, []byte("uc1-post-swap"))
	if err != nil {
		return err
	}
	fmt.Printf("post-swap:     %s — %s\n", verdict(res.Certificate), res.Certificate.Reason)

	events, consistent, err := usecases.VerifyBootLog(tb, usecases.SwEdge)
	if err != nil {
		return err
	}
	fmt.Printf("boot log:      %d events, replays against quote: %v (the swap is recorded forever)\n",
		len(events), consistent)
	return nil
}

func runUC2() error {
	fmt.Println("== UC2: Path Evidence as an Authentication Factor ==")
	tb, err := newTB()
	if err != nil {
		return err
	}
	pa := usecases.NewPathAuthenticator(tb.Appraiser, tb.Keys())
	enroll, err := usecases.CollectPathEvidence(tb, []byte("uc2-enroll"))
	if err != nil {
		return err
	}
	if err := pa.Enroll("alice", enroll); err != nil {
		return err
	}
	fmt.Println("enrolled alice's home path from a trusted session")

	login, err := usecases.CollectPathEvidence(tb, []byte("uc2-login"))
	if err != nil {
		return err
	}
	dec, err := pa.Authenticate("alice", login, []byte("uc2-login"))
	if err != nil {
		return err
	}
	fmt.Printf("password-less login from home path: granted=%v limited=%v (%s)\n",
		dec.Granted, dec.Limited, dec.Reason)

	if err := usecases.AthensSwap(tb, usecases.SwEdge, 9); err != nil {
		return err
	}
	login2, err := usecases.CollectPathEvidence(tb, []byte("uc2-login2"))
	if err != nil {
		return err
	}
	dec2, err := pa.Authenticate("alice", login2, []byte("uc2-login2"))
	if err != nil {
		return err
	}
	fmt.Printf("login after path environment changed: granted=%v (%s)\n", dec2.Granted, dec2.Reason)
	return nil
}

func runUC3() error {
	fmt.Println("== UC3: Path Evidence as an Authorization Tag (DDoS mode) ==")
	tb, err := newTB()
	if err != nil {
		return err
	}
	gate := usecases.NewGatekeeper("gate", 1, 2, tb.Keys())
	compiled, err := usecases.CompileUC1Policy(tb, []byte("uc3"))
	if err != nil {
		return err
	}
	if err := tb.SendAttested(compiled.Policy, true, 1, 443, nil); err != nil {
		return err
	}
	hdr, _, err := usecases.LastDelivered(tb.Client)
	if err != nil {
		return err
	}
	legit := tb.Client.Received()[0]
	gate.AllowTag(appraiser.PathTag(hdr.Evidence))
	gate.SetUnderAttack(true)

	out, _ := gate.Receive(1, legit)
	fmt.Printf("attested+allowlisted frame under attack: forwarded=%v\n", len(out) == 1)
	out, _ = gate.Receive(1, []byte("attack-junk-no-evidence"))
	fmt.Printf("unattested frame under attack:           forwarded=%v\n", len(out) == 1)
	fwd, drop := gate.Counts()
	fmt.Printf("gate counters: forwarded=%d dropped=%d\n", fwd, drop)
	return nil
}

func runUC4() error {
	fmt.Println("== UC4: Evidence as Documentation (C2 audit trail) ==")
	tb, err := newTB()
	if err != nil {
		return err
	}
	compiled, err := usecases.CompileUC4Policy(tb, usecases.SwACL)
	if err != nil {
		return err
	}
	if err := usecases.ArmScanner(tb, usecases.SwACL, compiled); err != nil {
		return err
	}
	for i := 0; i < 3; i++ {
		tb.SendPlain(true, 40000+uint64(i), usecases.C2Port, []byte("c2-beacon"))
		tb.SendPlain(true, 50000+uint64(i), 443, []byte("benign"))
	}
	records, err := usecases.CollectAudit(tb)
	if err != nil {
		return err
	}
	fmt.Printf("scanner on %s fingerprinted %d C2 flows (of 6 total flows)\n", usecases.SwACL, len(records))
	for i, r := range records {
		fmt.Printf("  record %d: %s serial=%d (%s)\n", i, verdict(r.Certificate), r.Certificate.Serial, r.Certificate.Reason)
	}
	cert, err := usecases.RecordAction(tb, usecases.SwACL,
		"blocked C2 flow 100->200:4444 per court order 17-442", []byte("uc4-action"))
	if err != nil {
		return err
	}
	fmt.Printf("deactivation action recorded: %s serial=%d — retrievable for compliance review\n",
		verdict(cert), cert.Serial)
	return nil
}

func runUC5() error {
	fmt.Println("== UC5: Cross-Referenced Attestation (host × network) ==")
	tb, err := newTB()
	if err != nil {
		return err
	}
	bank := attester.NewBankScenario()
	res, err := usecases.RunCrossAttestation(tb, bank, []byte("uc5-honest"))
	if err != nil {
		return err
	}
	fmt.Printf("honest client over honest path: %s (%s)\n", verdict(res.Certificate), res.Certificate.Reason)
	fmt.Printf("composed evidence: %d measurements across network and host places\n",
		len(evidence.Measurements(res.Composed)))

	tb2, err := newTB()
	if err != nil {
		return err
	}
	bank2 := attester.NewBankScenario()
	bank2.InfectExts()
	res2, err := usecases.RunCrossAttestation(tb2, bank2, []byte("uc5-infected"))
	if err != nil {
		return err
	}
	fmt.Printf("infected client over honest path: %s (%s)\n", verdict(res2.Certificate), res2.Certificate.Reason)
	return nil
}

func runMonitor() error {
	fmt.Println("== Continuous assessment (the paper's central hypothesis, §1) ==")
	tb, err := newTB()
	if err != nil {
		return err
	}
	ca := usecases.NewContinuousAssessor(tb.Appraiser)
	for _, sw := range tb.Switches {
		ca.Watch(sw)
	}
	for round := 1; round <= 4; round++ {
		if round == 3 {
			if err := usecases.AthensSwap(tb, usecases.SwACL, 9); err != nil {
				return err
			}
			fmt.Println("[adversary] swapped sw2's program between rounds")
		}
		alerts, err := ca.Tick()
		if err != nil {
			return err
		}
		fmt.Printf("round %d: %d alert(s)\n", round, len(alerts))
		for _, a := range alerts {
			fmt.Printf("  %s\n", a)
		}
	}
	fmt.Printf("final status: %v\n", ca.Status())
	return nil
}

func runThroughput() error {
	// Progress and human-readable output go to stderr so stdout stays
	// machine-parseable: Prometheus text with -telemetry, JSON with
	// -json, or just the results table otherwise.
	fmt.Fprintln(os.Stderr, "== Appraisal throughput: concurrent Verify/Appraise pipeline ==")
	counts := []int{1, 2, 4, 8}
	if *workers > 0 {
		counts = []int{*workers}
	}
	fmt.Fprintf(os.Stderr, "corpus: %d packets over %d flows (chained UC1 path evidence), GOMAXPROCS=%d, memo=%v\n",
		*packets, *flows, runtime.GOMAXPROCS(0), !*memoOff)
	rows, err := harness.RunThroughputSweepOpts(counts, harness.ThroughputOptions{
		Packets:  *packets,
		Flows:    *flows,
		Memo:     !*memoOff,
		Registry: reg,
		Tracer:   tracer,
		Audit:    audit,
		Recorder: plane.Recorder,
		Profiler: plane.Profiler,
	})
	if err != nil {
		return err
	}

	table := os.Stdout
	machine := *jsonOut || reg != nil
	if machine {
		table = os.Stderr
	}
	fmt.Fprintf(table, "%-8s %12s %10s %8s %8s %8s %9s\n",
		"workers", "pkts/sec", "elapsed", "pass", "fail", "speedup", "memoHit")
	for _, r := range rows {
		fmt.Fprintf(table, "%-8d %12.0f %10s %8d %8d %7.2fx %8.1f%%\n",
			r.Workers, r.PacketsPerSec, r.Elapsed.Round(time.Millisecond),
			r.Pass, r.Fail, r.Speedup, 100*r.MemoHitRate)
	}

	switch {
	case *jsonOut:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Rows []harness.ThroughputResult `json:"rows"`
		}{rows}); err != nil {
			return err
		}
	case reg != nil:
		// One-shot exposition dump: the same text a /metrics scrape of
		// the final state would return.
		if err := reg.Snapshot().WritePrometheus(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}
