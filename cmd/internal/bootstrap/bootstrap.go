// Package bootstrap is the daemons' shared observability setup: one
// definition of the -telemetry, -pprof, -trace, -audit, -recorder* and
// -profile* flags, and one wiring of registry → tracer → audit ledger →
// flight recorder → continuous profiler → sinks → telemetry server from
// them. attestd, appraised, perasim and fleetd each register the flag
// groups they offer and call Setup, attach their own components to the
// returned registry, tracer and ledger, then Start.
//
// It lives under cmd/ rather than beside the hot-path packages because
// the profiler imports freshness, which imports pera.
package bootstrap

import (
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"pera/internal/auditlog"
	"pera/internal/freshness"
	"pera/internal/profiler"
	"pera/internal/recorder"
	"pera/internal/telemetry"
)

// Group selects a set of observability flags.
type Group uint

const (
	Telemetry Group = 1 << iota // -telemetry
	Pprof                       // -pprof
	Trace                       // -trace
	Audit                       // -audit
	Recorder                    // -recorder, -recorder-interval, -recorder-debounce
	Profile                     // -profile, -profile-window, -profile-mutex, -profile-block
)

// Flags holds the parsed values of the registered groups; a flag whose
// group was not registered keeps its zero value.
type Flags struct {
	fs *flag.FlagSet

	Telemetry string
	Pprof     bool
	Trace     uint
	Audit     string

	RecorderDir      string
	RecorderInterval time.Duration
	RecorderDebounce time.Duration

	Profile       bool
	ProfileWindow time.Duration
	ProfileMutex  int
	ProfileBlock  int
}

// Register defines the flags of groups on fs.
func Register(fs *flag.FlagSet, groups Group) *Flags {
	f := &Flags{fs: fs}
	if groups&Telemetry != 0 {
		fs.StringVar(&f.Telemetry, "telemetry", "", "serve telemetry (/metrics, /metrics.json, /trace) on this address, e.g. :9464 (:0 picks a free port)")
	}
	if groups&Pprof != 0 {
		fs.BoolVar(&f.Pprof, "pprof", false, "with -telemetry: also expose /debug/pprof/* on the telemetry server")
	}
	if groups&Trace != 0 {
		fs.UintVar(&f.Trace, "trace", 0, "trace 1-in-N flows (0 = off, 1 = every flow); spans served at the -telemetry /trace endpoint")
	}
	if groups&Audit != 0 {
		fs.StringVar(&f.Audit, "audit", "", "write the hash-chained RATS audit ledger to this file (inspect with `attestctl audit`)")
	}
	if groups&Recorder != 0 {
		fs.StringVar(&f.RecorderDir, "recorder", "", "enable the attestation flight recorder; incident bundles land in this directory (inspect with `attestctl incident`)")
		fs.DurationVar(&f.RecorderInterval, "recorder-interval", time.Second, "with -recorder: metric scrape interval")
		fs.DurationVar(&f.RecorderDebounce, "recorder-debounce", 30*time.Second, "with -recorder: minimum spacing between incident bundles")
	}
	if groups&Profile != 0 {
		fs.BoolVar(&f.Profile, "profile", false, "enable the continuous profiler: stage-attributed CPU at /profile.json, raw artifacts at /profile/pprof (inspect with `attestctl profile`)")
		fs.DurationVar(&f.ProfileWindow, "profile-window", 2*time.Second, "with -profile: one CPU capture window")
		fs.IntVar(&f.ProfileMutex, "profile-mutex", 0, "runtime.SetMutexProfileFraction: sample 1-in-N mutex contention events (0 = off)")
		fs.IntVar(&f.ProfileBlock, "profile-block", 0, "runtime.SetBlockProfileRate: sample blocking events lasting >= N ns (0 = off)")
	}
	return f
}

// Options describe the daemon to Setup.
type Options struct {
	// Name prefixes every progress line, e.g. "attestd".
	Name string
	// Service names the process in recorder bundles and profiles.
	Service string
	// Log receives progress lines.
	Log io.Writer
	// Registry builds a registry even when no flag needs one (fleetd's
	// rollup, perasim's -json snapshot).
	Registry bool
	// AuditKey and AuditKeyID key the ledger and the recorder's bundle
	// verification (nil/"" select the dev key).
	AuditKey   []byte
	AuditKeyID string
	// HoldProfiler leaves the profiler's wall-clock capture loop
	// unstarted. perasim's throughput run profiles exactly its timed
	// appraisal phase with Profiler.CaptureWhile; runtime/pprof allows
	// one CPU profile per process, so a running loop would race that
	// capture, and Start cannot know which mode the caller runs in.
	HoldProfiler bool
}

// Obs is the running observability plane. Its fields are nil for
// components the flags did not enable.
type Obs struct {
	Registry *telemetry.Registry
	Tracer   *telemetry.FlowTracer
	Audit    *auditlog.Writer
	Recorder *recorder.Recorder
	Profiler *profiler.Profiler
	Server   *telemetry.Server

	f *Flags
	o Options
}

// Setup builds the components the flags enable — tracer, registry,
// audit ledger, flight recorder and profiler, wired to each other and to
// the shared sinks — without starting any of them, so the caller can
// attach its own components first.
func (f *Flags) Setup(o Options) (*Obs, error) {
	x := &Obs{f: f, o: o}
	if f.ProfileMutex > 0 {
		runtime.SetMutexProfileFraction(f.ProfileMutex)
	}
	if f.ProfileBlock > 0 {
		runtime.SetBlockProfileRate(f.ProfileBlock)
	}
	if f.Trace > 0 {
		x.Tracer = telemetry.NewFlowTracer(0)
		x.Tracer.SetSampleEvery(uint32(f.Trace))
		x.logf("tracing 1-in-%d flows (attestctl trace <flow|trace-id> to inspect)", f.Trace)
	}
	if o.Registry || f.Telemetry != "" || f.RecorderDir != "" || f.Profile {
		x.Registry = telemetry.NewRegistry()
		x.Tracer.Instrument(x.Registry)
	}
	if f.Audit != "" {
		w, err := auditlog.Create(f.Audit, auditlog.Options{KeyID: o.AuditKeyID, Key: o.AuditKey})
		if err != nil {
			return nil, err
		}
		x.Audit = w
		w.Instrument(x.Registry)
		if o.AuditKey == nil {
			x.logf("audit ledger -> %s (verify with `attestctl audit verify -ledger %s`)", f.Audit, f.Audit)
		} else {
			x.logf("audit ledger -> %s (verify with `attestctl audit verify -ledger %s -key <audit-key>`)", f.Audit, f.Audit)
			fmt.Fprintf(o.Log, "audit-key %s %s\n", o.AuditKeyID, hex.EncodeToString(o.AuditKey))
		}
	}
	logSink := freshness.NewLogSink(os.Stderr)
	var auditSink freshness.Sink
	if x.Audit != nil {
		auditSink = freshness.NewAuditSink(x.Audit)
	}
	if f.RecorderDir != "" {
		rec := recorder.New(recorder.Config{
			Interval: f.RecorderInterval,
			Service:  o.Service,
			Bundle: recorder.BundlerConfig{
				Dir: f.RecorderDir, Debounce: f.RecorderDebounce,
				Key: o.AuditKey, KeyID: o.AuditKeyID,
			},
		})
		rec.SetRegistry(x.Registry)
		rec.SetTracer(x.Tracer)
		rec.SetLedger(x.Audit, f.Audit)
		cfg := make(map[string]string)
		f.fs.VisitAll(func(fl *flag.Flag) { cfg[fl.Name] = fl.Value.String() })
		rec.SetConfigInfo(cfg)
		rec.Instrument(x.Registry)
		rec.AddSink(logSink)
		rec.AddSink(auditSink)
		x.Recorder = rec
	}
	if f.Profile {
		prof := profiler.New(profiler.Options{
			Service: o.Service, Window: f.ProfileWindow, Registry: x.Registry,
			Diff: profiler.DiffConfig{AutoBaseline: true},
		})
		prof.AddSink(logSink)
		prof.AddSink(auditSink)
		if x.Recorder != nil {
			// Regressions trigger incident bundles, and bundles carry the
			// profiler's cpu.pprof / mutex.pprof / top_diff.json.
			prof.AddSink(x.Recorder.Sink())
			x.Recorder.SetProfiler(prof)
		}
		x.Profiler = prof
	}
	return x, nil
}

// Start starts the recorder and profiler and, with -telemetry, serves
// the caller's endpoints followed by Endpoints.
func (x *Obs) Start(endpoints ...telemetry.Endpoint) error {
	if x.Recorder != nil {
		x.Recorder.Start()
		x.logf("flight recorder on — incident bundles -> %s", x.f.RecorderDir)
	}
	if x.Profiler != nil && !x.o.HoldProfiler {
		x.Profiler.Start()
		x.logf("continuous profiler on — %v windows at /profile.json (attestctl profile top)", x.f.ProfileWindow)
	}
	if x.f.Telemetry == "" {
		return nil
	}
	srv, err := telemetry.Serve(x.f.Telemetry, x.Registry, x.Tracer, append(endpoints, x.Endpoints()...)...)
	if err != nil {
		return err
	}
	x.Server = srv
	x.logf("telemetry serving on http://%s/metrics", srv.Addr())
	return nil
}

// Endpoints returns the recorder's and profiler's endpoints and, with
// -pprof, the pprof endpoints, for a telemetry server.
func (x *Obs) Endpoints() []telemetry.Endpoint {
	var eps []telemetry.Endpoint
	if x.Recorder != nil {
		eps = append(eps, x.Recorder.Endpoint())
	}
	if x.Profiler != nil {
		eps = append(eps, x.Profiler.Endpoints()...)
	}
	if x.f.Pprof {
		eps = append(eps, telemetry.PprofEndpoints()...)
	}
	return eps
}

// SealAudit closes the audit ledger and reports its totals, so the file
// on disk is complete and verifiable. Call it once.
func (x *Obs) SealAudit() {
	if x.Audit == nil {
		return
	}
	x.Audit.Close()
	x.logf("audit ledger sealed — %d records, %d dropped", x.Audit.Records(), x.Audit.Dropped())
}

// Close stops serving, stops the profiler and recorder, and closes the
// ledger (silently: SealAudit reports a clean shutdown).
func (x *Obs) Close() {
	if x.Server != nil {
		x.Server.Close()
	}
	x.Profiler.Close()
	x.Recorder.Close()
	x.Audit.Close()
}

func (x *Obs) logf(format string, args ...any) {
	fmt.Fprintf(x.o.Log, x.o.Name+": "+format+"\n", args...)
}
