// Package obs is the attestation pipeline's single instrumentation hook.
//
// Every instrumented stage of the paper's Fig. 3 pipeline — Verify,
// evidence Create/cache, Compose and Sign on the switch, then Appraise,
// Verify and Verdict off the switch — reports through one call pair:
//
//	m := st.Begin(p)
//	... the stage's work ...
//	d := m.End(p, outcome)
//
// A Stage is one place's stage: its counter, duration histogram and
// profiler label region, all fixed at construction. A Probe is one
// packet's (or one appraisal's) observation context: the flow ID, the
// tracer (nil unless the flow is sampled), the audit ledger, and the
// envelope span (hop, attest or appraise) the stage spans nest under.
// Begin and End fan the stage out to every attached consumer, so the
// channels agree by construction and the packet path holds no per-channel
// nil checks. With nothing attached, a stage costs its counter and an
// atomic load for the profiler; it takes no timestamp.
package obs

import (
	"time"

	"pera/internal/auditlog"
	"pera/internal/telemetry"
)

// Stage is one instrumented pipeline stage at one place.
type Stage struct {
	Name telemetry.Stage
	// Count, when set, is incremented by Begin.
	Count *telemetry.Counter
	// Hist, when set, observes the stage duration whenever the stage is
	// timed, pinning the probe's trace ID (if sampled) as the exemplar.
	Hist *telemetry.Histogram
	// Prof labels the goroutine for the stage's duration (profiler).
	Prof *telemetry.ProfRegion
	// Instant stages take no timestamp: their span is stamped at End with
	// zero duration, and their ledger record carries whatever duration the
	// caller put in the outcome.
	Instant bool
	// NoAudit stages record spans but no ledger records.
	NoAudit bool
}

// Probe is the observation context of one packet or one appraisal.
type Probe struct {
	Place string
	Flow  string
	// Tracer records stage spans; nil when tracing is off or the flow is
	// unsampled. Open sets it.
	Tracer *telemetry.FlowTracer
	// Audit receives ledger records; nil when no ledger is attached.
	Audit *auditlog.Writer
	// Timed arms every stage timer even when no span is sampled (the
	// switch's Instrument, an in-band hop span, an appraiser histogram).
	Timed bool
	// Span is the envelope span: stage spans record as its children.
	Span telemetry.SpanContext

	env    *Stage
	parent telemetry.SpanContext
	start  time.Time
	prof   bool
}

// Outcome is what a stage reports at End.
type Outcome struct {
	// Stage overrides the stage name for this outcome (cache_hit vs
	// cache_miss, verify vs verify_fail); empty keeps Stage.Name.
	Stage telemetry.Stage
	// Note is the span note.
	Note string
	// Rec holds the ledger record's stage-specific fields. End fills
	// Event, Place and Flow, and DurNS when the stage was timed.
	Rec auditlog.Record
	// Prov, when not zero, is the record's verdict provenance. It is
	// copied to the heap only when a ledger is attached.
	Prov auditlog.Provenance
}

// Mark is a stage in progress.
type Mark struct {
	st    *Stage
	start time.Time
	prof  bool
}

// Begin starts st for probe p: counts it, enters its profiler label and,
// when p is timed or traced, takes its start timestamp.
func (st *Stage) Begin(p *Probe) Mark {
	st.Count.Inc()
	m := Mark{st: st, prof: st.Prof.Enter()}
	if !st.Instant && (p.Timed || p.Tracer != nil) {
		m.start = time.Now()
	}
	return m
}

// Event is an instant stage: Begin and End in one call.
func (st *Stage) Event(p *Probe, o Outcome) {
	st.Begin(p).End(p, o)
}

// End finishes the stage: it leaves the profiler label (falling back to
// the envelope's), observes the histogram, records the child span and
// emits the ledger record. It returns the stage duration, zero when the
// stage was not timed, for the caller's in-band hop-span field.
func (m Mark) End(p *Probe, o Outcome) time.Duration {
	st := m.st
	p.restoreProf(m.prof)
	var d time.Duration
	if !m.start.IsZero() {
		d = time.Since(m.start)
		st.Hist.ObserveExemplar(d.Seconds(), p.Span.TraceID)
	}
	stage := o.Stage
	if stage == "" {
		stage = st.Name
	}
	if p.Tracer != nil {
		p.Tracer.RecordChild(p.Span, p.Flow, p.Place, stage, m.start, d, o.Note)
	}
	if p.Audit != nil && !st.NoAudit {
		o.Rec.Event = auditlog.Event(stage)
		if !m.start.IsZero() {
			o.Rec.DurNS = int64(d)
		}
		p.Log(o)
	}
	return d
}

// Log emits a ledger-only record — an event with no span of its own,
// such as a guard rejection or an appraisal starting. o.Rec.Event must be
// set; Place and Flow come from the probe.
func (p *Probe) Log(o Outcome) {
	if p.Audit == nil {
		return
	}
	o.Rec.Place, o.Rec.Flow = p.Place, p.Flow
	if o.Prov != (auditlog.Provenance{}) {
		prov := o.Prov
		o.Rec.Prov = &prov
	}
	p.Audit.Emit(o.Rec)
}

// Open starts the probe's envelope stage st (hop, attest, appraise):
// ctx is the envelope's span context, minted by tr for this flow and
// zero when the flow is unsampled, and parent is the span it nests
// under. An unsampled envelope drops the tracer from the probe so the
// stage timers stay unarmed. The envelope is timed when its span is
// sampled or timed is set (a hop span, a ledger duration, a histogram).
func (p *Probe) Open(st *Stage, tr *telemetry.FlowTracer, ctx, parent telemetry.SpanContext, timed bool) {
	p.env, p.Span, p.parent = st, ctx, parent
	p.Tracer = nil
	if ctx.Valid() {
		p.Tracer = tr
	}
	if ctx.Valid() || timed {
		p.start = time.Now()
	}
	p.prof = st.Prof.Enter()
}

// Elapsed returns the envelope's running time, zero when it is untimed.
func (p *Probe) Elapsed() time.Duration {
	if p.start.IsZero() {
		return 0
	}
	return time.Since(p.start)
}

// Close finishes the envelope: it leaves the envelope's profiler label,
// observes its histogram and records its span with the given note and,
// if not empty, a link to a span it rode (a shared batch flush).
func (p *Probe) Close(note, link string) {
	telemetry.ProfExit(p.prof)
	if p.start.IsZero() {
		return
	}
	d := time.Since(p.start)
	p.env.Hist.Observe(d.Seconds())
	if !p.Span.Valid() {
		return
	}
	if link != "" {
		p.Tracer.RecordSpan(p.Span, p.parent, p.Flow, p.Place, p.env.Name, p.start, d, note, link)
	} else {
		p.Tracer.RecordSpan(p.Span, p.parent, p.Flow, p.Place, p.env.Name, p.start, d, note)
	}
}

// restoreProf ends a stage's profiler label: a stage nested in a labeled
// envelope falls back to the envelope's label, otherwise the label is
// cleared.
func (p *Probe) restoreProf(entered bool) {
	if !entered {
		return
	}
	if p.prof {
		p.env.Prof.Enter()
		return
	}
	telemetry.ProfExit(true)
}
