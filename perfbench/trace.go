package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run records one span around each call the benchmark makes
// into a layer's public API (and around the hooks the layers offer:
// netsim.Node wrappers, Switch.SetSigner, wrapped rats.Handler funcs).
// Spans live in memory and are written out when the run ends; the ledger
// is computed from them. Nothing inside the program is instrumented.

// span is one timed call. Times are nanoseconds since the tracer epoch.
// It holds no pointers, so a run's spans cost the garbage collector
// nothing to scan.
type span struct {
	ID     int64
	Parent int64 // 0: root
	Op     int64
	Start  int64
	End    int64
	Name   spanKind
}

// spanJSON is a span as written out.
type spanJSON struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer collects spans from any number of goroutines.
type tracer struct {
	epoch time.Time
	next  atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(spanJSON{s.ID, s.Parent, s.Op, spanNames[s.Name], s.Start, s.End}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cursor is one goroutine's view of the tracer: a stack of open spans,
// so a call's span parents the spans of the calls it makes. A nil cursor
// records nothing, which is how untraced phases run the same loop.
type cursor struct {
	t     *tracer
	op    int64
	stack []openSpan
}

type openSpan struct {
	id, parent int64
	name       spanKind
	start      int64
}

func (t *tracer) cursor() *cursor {
	if t == nil {
		return nil
	}
	return &cursor{t: t}
}

// setOp tags the spans begun from now on with op id op.
func (c *cursor) setOp(op int64) {
	if c != nil {
		c.op = op
	}
}

// begin opens a span under the innermost open span and returns its id.
func (c *cursor) begin(name spanKind) int64 {
	if c == nil {
		return 0
	}
	return c.beginUnder(name, c.top())
}

// beginUnder opens a span under an explicit parent: a span begun on a
// server goroutine names the client span that caused it.
func (c *cursor) beginUnder(name spanKind, parent int64) int64 {
	if c == nil {
		return 0
	}
	id := c.t.next.Add(1)
	c.stack = append(c.stack, openSpan{id: id, parent: parent, name: name, start: c.t.now()})
	return id
}

// end closes the innermost open span and returns its duration.
func (c *cursor) end() int64 {
	if c == nil || len(c.stack) == 0 {
		return 0
	}
	o := c.stack[len(c.stack)-1]
	c.stack = c.stack[:len(c.stack)-1]
	now := c.t.now()
	c.t.add(span{ID: o.id, Parent: o.parent, Op: c.op, Name: o.name, Start: o.start, End: now})
	return now - o.start
}

// top returns the innermost open span's id (0 when none).
func (c *cursor) top() int64 {
	if c == nil || len(c.stack) == 0 {
		return 0
	}
	return c.stack[len(c.stack)-1].id
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children, where overlapping children
// count once and a child reaching outside its parent counts only inside.
func selfTimes(spans []span) map[int64]int64 {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return self
}

// covered returns how much of parent's interval the union of children
// covers.
func covered(parent span, children []span) int64 {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := c.Start, c.End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}

// nameStats sums span count, duration and self time by span name.
type nameStats struct {
	Count int64
	Dur   int64
	Self  int64
}

func byName(spans []span) map[spanKind]nameStats {
	self := selfTimes(spans)
	out := make(map[spanKind]nameStats)
	for _, s := range spans {
		st := out[s.Name]
		st.Count++
		st.Dur += s.dur()
		st.Self += self[s.ID]
		out[s.Name] = st
	}
	return out
}

// spanKind names the layer call a span times.
type spanKind uint8

// Span kinds, one per layer call the benchmark wraps.
const (
	spOp          spanKind = iota // one op on a client goroutine
	spCompile                     // usecases.CompileUC1Policy
	spFrame                       // workload.Generator.NextFrame / pisa.IPFrame
	spWrap                        // pera.WrapFrame / pera.Push at the sender
	spUnwrap                      // pera.UnwrapFrame at the client
	spSend                        // netsim.Network.Send / Inject
	spHop                         // pera.Switch.Receive via the timing node
	spSign                        // the switch's evidence.Signer
	spWindow                      // appraiser.Pool.AppraiseAll
	spAppraise                    // appraiser.Appraiser.Appraise
	spCertVerify                  // appraiser.DecodeCertificate / VerifyCertificate
	spChallenge                   // rats.Conn.Call(MsgChallenge)
	spAppraiseRPC                 // rats.Conn.Call(MsgAppraise)
	spAttest                      // Switch.AttesterHandler
	spHandle                      // Appraiser.Handler
)

// spanNames are the kinds' names in the span files.
var spanNames = [...]string{
	spOp:          "op",
	spCompile:     "nac.compile",
	spFrame:       "pisa.frame",
	spWrap:        "pera.wrap",
	spUnwrap:      "pera.unwrap",
	spSend:        "netsim.send",
	spHop:         "pera.hop",
	spSign:        "rot.sign",
	spWindow:      "appraiser.window",
	spAppraise:    "appraiser.appraise",
	spCertVerify:  "appraiser.cert_verify",
	spChallenge:   "rats.challenge",
	spAppraiseRPC: "rats.appraise_call",
	spAttest:      "pera.attest",
	spHandle:      "appraiser.handle",
}

// layerOf maps a span name to the ledger layer its self time belongs to.
var layerOf = map[spanKind]string{
	spOp:          "harness",
	spCompile:     "nac",
	spFrame:       "pisa",
	spWrap:        "pera",
	spUnwrap:      "pera",
	spSend:        "netsim",
	spHop:         "pera",
	spAttest:      "pera",
	spSign:        "rot",
	spWindow:      "appraiser",
	spAppraise:    "appraiser",
	spCertVerify:  "appraiser",
	spHandle:      "appraiser",
	spChallenge:   "rats",
	spAppraiseRPC: "rats",
}

// ledgerLayers is the print order of the ledger rows.
var ledgerLayers = []string{"harness", "nac", "pisa", "netsim", "pera", "rot", "appraiser", "rats"}

// ledger is the per-layer cost account of one traced phase.
type ledger struct {
	Ops          int
	SelfNsPerOp  map[string]float64 // layer -> self ns per op
	SumNs        float64            // sum of the rows
	E2ENs        float64            // untraced end-to-end ns per op
	TracedNs     float64            // traced end-to-end ns per op
	OutsideNs    float64            // traced time per op not inside any op span
	ResidualNs   float64            // E2ENs - SumNs
	ResidualFrac float64
	OverheadFrac float64 // (TracedNs - E2ENs) / E2ENs
}

// buildLedger accounts the traced phase's spans per layer. tracedNs and
// e2eNs are busy nanoseconds per op (wall time x clients / ops) of the
// traced and untraced phases.
func buildLedger(st map[spanKind]nameStats, ops int, tracedNs, e2eNs float64) ledger {
	l := ledger{Ops: ops, SelfNsPerOp: map[string]float64{}, E2ENs: e2eNs, TracedNs: tracedNs}
	if ops == 0 {
		return l
	}
	for name, s := range st {
		layer, ok := layerOf[name]
		if !ok {
			continue
		}
		v := float64(s.Self) / float64(ops)
		l.SelfNsPerOp[layer] += v
		l.SumNs += v
	}
	l.OutsideNs = tracedNs - float64(st[spOp].Dur)/float64(ops)
	l.ResidualNs = e2eNs - l.SumNs
	if e2eNs > 0 {
		l.ResidualFrac = l.ResidualNs / e2eNs
		l.OverheadFrac = (tracedNs - e2eNs) / e2eNs
	}
	return l
}

// print writes the ledger table, and says where a residual above 10%
// of end-to-end lives.
func (l ledger) print(w io.Writer) {
	fmt.Fprintf(w, "ledger (traced chunks, %d ops; self ns/op per layer):\n", l.Ops)
	for _, layer := range ledgerLayers {
		v := l.SelfNsPerOp[layer]
		share := 0.0
		if l.SumNs > 0 {
			share = v / l.SumNs
		}
		fmt.Fprintf(w, "  %-10s %12.0f ns/op  %5.1f%%\n", layer, v, 100*share)
	}
	fmt.Fprintf(w, "  %-10s %12.0f ns/op\n", "sum", l.SumNs)
	fmt.Fprintf(w, "  %-10s %12.0f ns/op  (untraced chunks)\n", "e2e", l.E2ENs)
	fmt.Fprintf(w, "  %-10s %12.0f ns/op  (%+.1f%% of e2e)\n", "residual", l.ResidualNs, 100*l.ResidualFrac)
	fmt.Fprintf(w, "  tracing overhead %+.1f%% (traced %0.f vs untraced %.0f ns/op)\n", 100*l.OverheadFrac, l.TracedNs, l.E2ENs)
	// Every span nests inside an op span, so sum = traced - outside and
	// residual = outside - (traced - e2e): time between op spans, less
	// what tracing added.
	fmt.Fprintf(w, "  residual = %.0f ns/op between op spans (loop, GC, scheduler) - %.0f ns/op traced/untraced gap\n",
		l.OutsideNs, l.TracedNs-l.E2ENs)
	if l.ResidualFrac > 0.10 || l.ResidualFrac < -0.10 {
		fmt.Fprintf(w, "  residual exceeds 10%% of e2e; it lives in the two terms above, not in any layer\n")
	}
}
