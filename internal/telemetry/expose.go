package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"time"
)

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4): one # TYPE line per metric family, histogram
// families expanded into cumulative _bucket/_sum/_count series. Output
// order is deterministic (the snapshot is sorted).
func (s Snapshot) WritePrometheus(w io.Writer) error {
	typed := make(map[string]bool)
	for _, m := range s.Metrics {
		if !typed[m.Name] {
			typed[m.Name] = true
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.Name, m.Kind); err != nil {
				return err
			}
		}
		if m.Kind == KindHistogram && m.Hist != nil {
			if err := writePromHistogram(w, m); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "%s%s %s\n", m.Name, m.LabelString(), formatValue(m.Value)); err != nil {
			return err
		}
	}
	return nil
}

func writePromHistogram(w io.Writer, m MetricSnapshot) error {
	// OpenMetrics-style exemplar suffixes on _bucket lines: emitted only
	// for buckets that actually hold a trace-linked observation, so
	// tracing-off output is byte-identical to the pre-exemplar format.
	var exemplars map[int]Exemplar
	for _, be := range m.Hist.Exemplars {
		if exemplars == nil {
			exemplars = make(map[int]Exemplar, len(m.Hist.Exemplars))
		}
		exemplars[be.Bucket] = be.Exemplar
	}
	for i, b := range m.Hist.Buckets {
		le := "+Inf"
		if !math.IsInf(b.UpperBound, 1) {
			le = formatValue(b.UpperBound)
		}
		suffix := ""
		if ex, ok := exemplars[i]; ok {
			suffix = fmt.Sprintf(" # {trace_id=\"%s\"} %s %s",
				promEscape(ex.TraceID), formatValue(ex.Value),
				strconv.FormatFloat(float64(ex.TS)/1e9, 'f', 3, 64))
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d%s\n", m.Name, labelStringWith(m.Labels, L("le", le)), b.Count, suffix); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", m.Name, m.LabelString(), formatValue(m.Hist.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", m.Name, m.LabelString(), m.Hist.Count)
	return err
}

// filterSpans keeps the spans matching keep, preserving order.
func filterSpans(spans []Span, keep func(Span) bool) []Span {
	out := spans[:0:0]
	for _, s := range spans {
		if keep(s) {
			out = append(out, s)
		}
	}
	return out
}

// labelStringWith renders labels plus one extra (the histogram le).
func labelStringWith(labels []Label, extra Label) string {
	return labelString(append(append([]Label(nil), labels...), extra))
}

// formatValue renders a float the way Prometheus clients do: integers
// without an exponent, everything else in shortest round-trip form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteJSON renders the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteJSONError answers an HTTP request with a JSON error document and
// the right status code — the contract for every telemetry surface:
// machine clients (fleetscope, dashboards) must be able to distinguish
// "you asked a bad question" from an empty-but-valid answer without
// sniffing body shapes, so bad queries never get 200 + a partial body.
func WriteJSONError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
		Code  int    `json:"code"`
	}{Error: msg, Code: code})
}

// Endpoint mounts one extra handler on the telemetry mux — how optional
// surfaces (an observatory collector's JSON, pprof) ride the same
// listener as /metrics without the telemetry package importing them.
// Desc, when set, annotates the endpoint on the index page at / so
// operators stop guessing paths.
type Endpoint struct {
	Path    string
	Desc    string
	Handler http.Handler
}

// Handler serves the registry (and optionally a tracer) over HTTP:
//
//	GET /metrics       Prometheus text format
//	GET /metrics.json  JSON snapshot
//	GET /trace         JSON span dump (404 when no tracer is attached)
//
// Additional endpoints (observatory JSON, pprof, ...) are mounted at
// their own paths and listed on the index page.
func Handler(reg *Registry, tracer *FlowTracer, extras ...Endpoint) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.Snapshot().WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		reg.Snapshot().WriteJSON(w)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		if tracer == nil {
			http.NotFound(w, r)
			return
		}
		q := r.URL.Query()
		spans := tracer.Spans()
		if flow := q.Get("flow"); flow != "" {
			spans = filterSpans(spans, func(s Span) bool { return s.Flow == flow })
		}
		if tid := q.Get("trace"); tid != "" {
			spans = filterSpans(spans, func(s Span) bool { return s.TraceID == tid })
		}
		if ls := q.Get("limit"); ls != "" {
			n, err := strconv.Atoi(ls)
			if err != nil || n < 0 {
				WriteJSONError(w, http.StatusBadRequest, "bad limit: "+ls)
				return
			}
			if n < len(spans) {
				// Keep the newest n spans — the ring is oldest-first.
				spans = spans[len(spans)-n:]
			}
		}
		switch q.Get("format") {
		case "", "json":
		case "otlp":
			w.Header().Set("Content-Type", "application/json")
			WriteOTLP(w, "pera", spans)
			return
		default:
			WriteJSONError(w, http.StatusBadRequest, "unknown format: "+q.Get("format")+" (want json or otlp)")
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(struct {
			Recorded uint64 `json:"recorded_total"`
			Spans    []Span `json:"spans"`
		}{Recorded: tracer.Recorded(), Spans: spans})
	})
	// Index page: every registered endpoint with a one-line description,
	// aligned for terminal reading (`curl host:port/`).
	rows := []Endpoint{
		{Path: "/metrics", Desc: "Prometheus text exposition (0.0.4)"},
		{Path: "/metrics.json", Desc: "JSON metric snapshot"},
	}
	if tracer != nil {
		rows = append(rows, Endpoint{Path: "/trace", Desc: "span ring dump (params: flow, trace, limit, format=otlp)"})
	}
	for _, e := range extras {
		mux.Handle(e.Path, e.Handler)
		rows = append(rows, e)
	}
	width := 0
	for _, e := range rows {
		if len(e.Path) > width {
			width = len(e.Path)
		}
	}
	index := "pera telemetry endpoints\n"
	for _, e := range rows {
		if e.Desc == "" {
			index += e.Path + "\n"
			continue
		}
		index += fmt.Sprintf("%-*s  %s\n", width, e.Path, e.Desc)
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, index)
	})
	return mux
}

// readHeaderTimeout bounds how long a client may take to send its request
// headers, so a slow or half-open peer cannot hold a connection forever.
const readHeaderTimeout = 10 * time.Second

// Server is a live telemetry endpoint.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts an HTTP server for the registry/tracer on addr (":0"
// picks a free port; Addr reports the bound address). The server runs
// until Close. Extra endpoints are mounted alongside /metrics.
func Serve(addr string, reg *Registry, tracer *FlowTracer, extras ...Endpoint) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln, srv: &http.Server{
		Handler:           Handler(reg, tracer, extras...),
		ReadHeaderTimeout: readHeaderTimeout,
	}}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound listen address (host:port).
func (s *Server) Addr() string {
	a := s.ln.Addr().String()
	// Normalize the unspecified address for clickable/curlable output.
	if host, port, err := net.SplitHostPort(a); err == nil {
		if host == "::" || host == "0.0.0.0" || host == "" {
			return net.JoinHostPort("127.0.0.1", port)
		}
	}
	return a
}

// Close stops the server.
func (s *Server) Close() error { return s.srv.Close() }
