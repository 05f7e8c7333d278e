package obs

import (
	"bytes"
	"testing"

	"pera/internal/auditlog"
	"pera/internal/telemetry"
)

// TestUnattachedStageTakesNoTimestamp pins the zero-overhead contract:
// with no tracer, no timing and no ledger, a stage counts and nothing
// else — no timestamp, no histogram observation, no duration.
func TestUnattachedStageTakesNoTimestamp(t *testing.T) {
	var c telemetry.Counter
	h := telemetry.NewHistogram("h", nil)
	st := Stage{Name: telemetry.StageSign, Count: &c, Hist: h}
	var p Probe
	m := st.Begin(&p)
	if !m.start.IsZero() {
		t.Fatal("unattached stage took a timestamp")
	}
	if d := m.End(&p, Outcome{}); d != 0 {
		t.Fatalf("unattached stage measured %v", d)
	}
	if c.Value() != 1 || h.Sample().Hist.Count != 0 {
		t.Fatalf("count %d, histogram %d", c.Value(), h.Sample().Hist.Count)
	}
}

// TestLedgerAloneDoesNotTime checks that an attached ledger records the
// stage without arming its timer, and that a timed stage stamps its
// duration on both the span and the record.
func TestLedgerAloneDoesNotTime(t *testing.T) {
	var buf bytes.Buffer
	w := auditlog.NewWriter(&buf, auditlog.Options{})
	st := Stage{Name: telemetry.StageSign}
	p := Probe{Place: "sw1", Flow: "f", Audit: w}
	if m := st.Begin(&p); !m.start.IsZero() {
		t.Fatal("a ledger alone armed the stage timer")
	} else {
		m.End(&p, Outcome{})
	}
	tr := telemetry.NewFlowTracer(8)
	p.Open(&Stage{Name: telemetry.StageHop}, tr, tr.NewContext(p.Flow), telemetry.SpanContext{}, false)
	st.Begin(&p).End(&p, Outcome{Note: "timed"})
	p.Close("", "")
	w.Close()

	recs, err := auditlog.ReadRecords(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// ledger_open, two sign records, ledger_close.
	if len(recs) != 4 || recs[1].Event != auditlog.EventSign || recs[1].DurNS != 0 || recs[2].DurNS <= 0 {
		t.Fatalf("records: %+v", recs)
	}
	spans := tr.Spans()
	if len(spans) != 2 || spans[0].Stage != telemetry.StageSign || spans[0].ParentID != spans[1].SpanID || spans[1].Stage != telemetry.StageHop {
		t.Fatalf("spans: %+v", spans)
	}
}

// TestUnsampledEnvelopeDropsTracer checks that an envelope whose flow
// the tracer does not sample leaves the probe untraced and untimed.
func TestUnsampledEnvelopeDropsTracer(t *testing.T) {
	tr := telemetry.NewFlowTracer(8)
	tr.SetSampleEvery(0)
	var p Probe
	p.Flow = "f"
	p.Open(&Stage{Name: telemetry.StageHop}, tr, tr.NewContext(p.Flow), telemetry.SpanContext{}, false)
	if p.Tracer != nil || p.Elapsed() != 0 {
		t.Fatalf("unsampled envelope kept tracer %v / elapsed %v", p.Tracer, p.Elapsed())
	}
	if m := (&Stage{Name: telemetry.StageSign}).Begin(&p); !m.start.IsZero() {
		t.Fatal("unsampled flow armed a stage timer")
	}
}
