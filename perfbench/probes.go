package main

import (
	"os"
	"path/filepath"
	"time"

	"pera/internal/auditlog"
	"pera/internal/evidence"
	"pera/internal/pera"
	"pera/internal/pisa"
)

// Replay probes time a layer whose calls happen inside another layer
// (header Pop/Push and the PISA pipeline inside a hop, evidence codecs
// and signature checks inside appraisal, ledger sealing on the audit
// writer's goroutine) by calling its public function directly on inputs
// captured during the same traced run.

// captureCap bounds the frames and chains kept per kind; captureRecords
// the ledger records.
const (
	captureCap     = 64
	captureRecords = 4096
)

// captured holds the traced run's probe inputs and the in-band window
// timings.
type captured struct {
	frames map[string][]hopFrame // per switch, the frames it received
	sws    map[string]*pera.Switch
	chains []*evidence.Evidence // delivered (in-band) or challenged (out-of-band) evidence

	windows          int
	windowNs, waitNs int64
	ratsMsgs         int64
	ratsBytes        int64
	records          []auditlog.Record // appraiser ledger records (out-of-band)
}

type hopFrame struct {
	port  uint64
	frame []byte
}

func newCaptured() *captured {
	return &captured{frames: map[string][]hopFrame{}, sws: map[string]*pera.Switch{}}
}

func (c *captured) hop(sw *pera.Switch, port uint64, frame []byte) {
	if c == nil || len(c.frames[sw.Name()]) >= captureCap {
		return
	}
	c.sws[sw.Name()] = sw
	c.frames[sw.Name()] = append(c.frames[sw.Name()], hopFrame{port: port, frame: append([]byte(nil), frame...)})
}

func (c *captured) chain(ev *evidence.Evidence) {
	if c == nil || len(c.chains) >= captureCap {
		return
	}
	c.chains = append(c.chains, ev)
}

// probeCalls is the minimum number of calls each probe times.
const probeCalls = 4096

// nsPerCall runs fns round-robin for at least probeCalls calls and three
// passes, and returns the mean ns per call.
func nsPerCall(fns []func()) float64 {
	if len(fns) == 0 {
		return 0
	}
	passes := (probeCalls + len(fns) - 1) / len(fns)
	if passes < 3 {
		passes = 3
	}
	start := time.Now()
	for p := 0; p < passes; p++ {
		for _, f := range fns {
			f()
		}
	}
	return float64(time.Since(start)) / float64(passes*len(fns))
}

// cloneInstance loads a second PISA instance of in's program with the
// same table entries, so probing it leaves the live switch untouched.
func cloneInstance(in *pisa.Instance) (*pisa.Instance, error) {
	out, err := pisa.Load(in.Program())
	if err != nil {
		return nil, err
	}
	for _, t := range in.TableNames() {
		entries, err := in.Entries(t)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			if err := out.InstallEntry(t, e); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// runProbes times each probed function and returns the per-layer
// metrics it measures. Captured ledger records are re-appended to a
// scratch ledger in scratchDir.
func runProbes(c *captured, keys evidence.KeyMap, scratchDir string) (map[string]float64, error) {
	out := map[string]float64{}

	var pops, pushes, procs []func()
	for name, frames := range c.frames {
		inst, err := cloneInstance(c.sws[name].Instance())
		if err != nil {
			return nil, err
		}
		for _, f := range frames {
			f := f
			inner := f.frame
			if pera.HasHeader(f.frame) {
				hdr, rest, err := pera.Pop(f.frame)
				if err != nil {
					return nil, err
				}
				inner = rest
				pops = append(pops, func() { _, _, _ = pera.Pop(f.frame) })
				pushes = append(pushes, func() { _ = pera.Push(hdr, rest) })
			}
			// Process may rewrite its input; keep the captured frame intact.
			in := append([]byte(nil), inner...)
			procs = append(procs, func() { _, _ = inst.Process(in, f.port) })
		}
	}
	out["pera.pop_ns"] = nsPerCall(pops)
	out["pera.push_ns"] = nsPerCall(pushes)
	out["pisa.process_ns"] = nsPerCall(procs)

	var encs, decs, shared []func()
	for _, ch := range c.chains {
		ch := ch
		enc := evidence.Encode(ch)
		encs = append(encs, func() { _ = evidence.Encode(ch) })
		decs = append(decs, func() { _, _ = evidence.Decode(enc) })
		shared = append(shared, func() { _, _ = evidence.DecodeShared(enc) })
	}
	out["evidence.encode_ns"] = nsPerCall(encs)
	out["evidence.decode_ns"] = nsPerCall(decs)
	out["evidence.decode_shared_ns"] = nsPerCall(shared)

	if len(c.chains) > 0 {
		out["ed25519batch.ns_per_sig"] = batchNsPerSig(c.chains, keys)
		out["ed25519.single_ns_per_sig"], out["evidence.memo_hit_ns"] = walkNsPerSig(c.chains, keys)
	}

	if len(c.records) > 0 {
		ns, err := appendNsPerRecord(c.records, scratchDir)
		if err != nil {
			return nil, err
		}
		out["auditlog.ns_per_record"] = ns
	}
	return out, nil
}

// batchNsPerSig gathers every captured chain into one BatchVerifier
// window over a fresh memo and flushes it, three times.
func batchNsPerSig(chains []*evidence.Evidence, keys evidence.KeyMap) float64 {
	var ns time.Duration
	sigs := 0
	for p := 0; p < 3; p++ {
		bv := evidence.NewBatchVerifier(evidence.NewVerifyMemo(0))
		start := time.Now()
		for _, ch := range chains {
			_ = bv.Gather(ch, keys)
		}
		sigs += bv.Pending()
		bv.Flush()
		ns += time.Since(start)
	}
	if sigs == 0 {
		return 0
	}
	return float64(ns) / float64(sigs)
}

// walkNsPerSig times the signature walk with no memo (one
// crypto/ed25519 verify per signature) and with a warmed memo (one
// lookup per signature).
func walkNsPerSig(chains []*evidence.Evidence, keys evidence.KeyMap) (single, hit float64) {
	memo := evidence.NewVerifyMemo(0)
	for _, ch := range chains {
		_, _ = evidence.VerifySignaturesMemo(ch, keys, memo)
	}
	pass := func(m *evidence.VerifyMemo) float64 {
		sigs := 0
		start := time.Now()
		for _, ch := range chains {
			n, _ := evidence.VerifySignaturesMemo(ch, keys, m)
			sigs += n
		}
		if sigs == 0 {
			return 0
		}
		return float64(time.Since(start)) / float64(sigs)
	}
	single = pass(nil)
	for p := 0; p < 16; p++ {
		hit += pass(memo) / 16
	}
	return single, hit
}

// appendNsPerRecord re-appends ledger records to a scratch ledger and
// returns the ns per record from the first Emit to the end of Close
// (when every record is sealed and on disk).
func appendNsPerRecord(recs []auditlog.Record, scratchDir string) (float64, error) {
	path := filepath.Join(scratchDir, "scratch-ledger.jsonl")
	defer os.Remove(path)
	w, err := auditlog.Create(path, auditlog.Options{Queue: len(recs) + 1})
	if err != nil {
		return 0, err
	}
	start := time.Now()
	for _, r := range recs {
		r.Seq, r.TS, r.Prev, r.MAC = 0, 0, "", ""
		w.Emit(r)
	}
	if err := w.Close(); err != nil {
		return 0, err
	}
	return float64(time.Since(start)) / float64(len(recs)), nil
}
