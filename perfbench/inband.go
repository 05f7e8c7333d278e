package main

import (
	"bytes"
	"fmt"
	"time"

	"pera/internal/appraiser"
	"pera/internal/evidence"
	"pera/internal/netsim"
	"pera/internal/p4ir"
	"pera/internal/pera"
	"pera/internal/pisa"
	"pera/internal/usecases"
	"pera/internal/workload"
)

// The three in-band workloads drive attested frames bank -> client
// through netsim and appraise the delivered chains at the relying party.
// One goroutine sends, back to back: netsim is synchronous, so the
// per-packet cost sets the rate.

const (
	subject     = "bank→client path"
	windowSize  = 64 // Pool.AppraiseAll window of the fresh and guarded workloads
	sampleEvery = 16 // every-N sampling period of inband-sampled
	forgeOneIn  = 32 // inband-guarded forges one packet in this many
	guardedHops = 6  // switches of the inband-guarded linear testbed
)

// Forgery kinds of inband-guarded.
const (
	honest  = iota
	corrupt // a hop signature flipped: dropped by the next Verify stage
	replay  // a stale, valid chain under a new nonce: rejected by the nonce check
)

type inband struct {
	kind  string
	tb    *usecases.Testbed
	cache *evidence.Cache
	net   *netsim.Network // tb.Net, or its traced copy
	names []string        // path switches in order
	memos []*evidence.VerifyMemo
	pool  *appraiser.Pool // windowed appraisal; nil appraises each evidenced packet at once
	pub   []byte          // appraiser certificate key

	gen      *workload.Generator
	prog     *p4ir.Program
	payload  []byte
	nonceTag string
	policies []*pera.Policy // per-flow session policies of inband-sampled
	forge    xorshift
	forgeAt  uint64             // forged position in the current block of forgeOneIn ops
	stale    *evidence.Evidence // last honest delivered chain (inband-guarded)
	ops      int64              // ops started since setup: span op ids, the samplers' and the forger's clock

	got   []byte    // set by the client observer during Send
	gotAt time.Time // when it arrived (traced runs only)

	cur  *cursor
	hops []*hopNode
	cap  *captured
}

// pendingOp is a delivered packet waiting for its appraisal window.
type pendingOp struct {
	start, delivered time.Time
	transit          int64
	job              appraiser.Job
	forged           int
}

func newInband(kind string, seed uint64, tr *tracer) (*inband, error) {
	s := &inband{kind: kind, cache: evidence.NewCache(), cur: tr.cursor(), forge: xorshift(seed ^ 0x9e3779b97f4a7c15)}
	s.nonceTag = fmt.Sprintf("s%d", seed)
	cfg := pera.Config{InBand: true, Composition: evidence.Chained, Cache: s.cache}
	var err error
	flows, pattern, payload := 64, workload.Uniform, 64
	switch kind {
	case "inband-fresh":
		s.tb, err = usecases.NewTestbed(cfg)
	case "inband-sampled":
		s.tb, err = usecases.NewTestbed(cfg)
		flows, pattern, payload = 256, workload.Skewed, 1400
	case "inband-guarded":
		s.tb, err = usecases.NewLinearTestbed(guardedHops, cfg)
	default:
		return nil, fmt.Errorf("unknown in-band workload %q", kind)
	}
	if err != nil {
		return nil, err
	}
	s.names = s.tb.PathSwitchNames()
	keys := s.tb.Keys()
	for _, name := range s.names {
		sw := s.tb.Switches[name]
		switch kind {
		case "inband-sampled":
			// Each switch samples on its own counter (Fig. 4 high
			// Inertia); all see every packet, so they stay in step.
			sw.SetSampler(evidence.NewSampler(evidence.SamplerConfig{Mode: evidence.SampleEveryN, N: sampleEvery}))
		case "inband-guarded":
			c := sw.Config()
			c.VerifyIncoming = keys
			c.VerifyMemo = evidence.NewVerifyMemo(0)
			sw.SetConfig(c)
			s.memos = append(s.memos, c.VerifyMemo)
		}
	}
	a := s.tb.Appraiser
	a.RequireNonce = true
	a.EnableMemo(0)
	s.pub = a.Public()
	if kind != "inband-sampled" {
		s.pool = appraiser.NewPool(a, 2)
	}

	s.gen = workload.New(workload.Config{Flows: flows, Pattern: pattern, Seed: seed})
	s.prog = usecases.SwitchProgram(usecases.SwEdge)
	s.payload = seededBytes(seed, payload)
	if kind == "inband-sampled" {
		for f := 0; f < flows; f++ {
			c, err := usecases.CompileUC1Policy(s.tb, s.tb.NextNonce(s.nonceTag+"-session"))
			if err != nil {
				return nil, err
			}
			s.policies = append(s.policies, c.Policy)
		}
	} else if _, err := usecases.CompileUC1Policy(s.tb, []byte("warm")); err != nil {
		return nil, err
	}

	s.net = s.tb.Net
	if tr != nil {
		s.cap = newCaptured()
		s.net = wrapNetwork(s.tb.Net, func(n netsim.Node) netsim.Node {
			sw, ok := n.(*pera.Switch)
			if !ok {
				return n
			}
			sw.SetSigner(&timedSigner{inner: sw.RoT(), cur: s.cur})
			h := &hopNode{sw: sw, cur: s.cur, verifies: sw.Config().VerifyIncoming != nil, cap: s.cap}
			s.hops = append(s.hops, h)
			return h
		})
	}
	traced := tr != nil
	s.tb.Client.SetObserver(func(_ uint64, frame []byte) {
		s.got = frame
		if traced {
			s.gotAt = time.Now()
		}
	})
	return s, nil
}

func (s *inband) concurrency() int { return 1 }

func (s *inband) close() []string {
	if s.pool != nil {
		s.pool.Close()
	}
	return nil
}

// send transmits one attested frame from the bank and returns what the
// client received (nil when nothing arrived) and the Send's duration.
func (s *inband) send(frame []byte) ([]byte, int64, error) {
	s.got = nil
	s.cur.begin(spSend)
	t := time.Now()
	err := s.net.Send(usecases.HostBank, netsim.HostPort, frame)
	d := int64(time.Since(t))
	s.cur.end()
	s.tb.Client.Clear()
	return s.got, d, err
}

func (s *inband) run(ph *phase) {
	before := s.snapshot()
	exp := counts{}
	if s.kind == "inband-sampled" {
		for started := 0; ph.more(started); started++ {
			s.sampledOp(ph, exp)
		}
	} else {
		for started := 0; ph.more(started); {
			started += s.window(ph, exp)
		}
	}
	ph.end = time.Now()
	ph.delta = s.snapshot().sub(before)
	ph.expect(exp)
}

// window runs ops until windowSize packets are delivered, appraises them
// with one Pool.AppraiseAll call, and returns the ops it started.
func (s *inband) window(ph *phase, exp counts) int {
	pending := make([]pendingOp, 0, windowSize)
	started := 0
	for len(pending) < windowSize {
		started++
		s.ops++
		s.cur.setOp(s.ops)
		s.cur.begin(spOp)
		p, ok := s.windowOp(ph, exp)
		if ok {
			pending = append(pending, p)
		}
		if len(pending) == windowSize {
			s.appraiseWindow(ph, pending, exp)
		}
		s.cur.end()
	}
	return started
}

// windowOp sends one packet of the fresh or guarded workload. It reports
// false when the packet is not expected to (or did not) reach the client.
func (s *inband) windowOp(ph *phase, exp counts) (pendingOp, bool) {
	start := time.Now()
	nonce := s.tb.NextNonce(s.nonceTag)
	s.cur.begin(spCompile)
	compiled, err := usecases.CompileUC1Policy(s.tb, nonce)
	s.cur.end()
	if err != nil {
		ph.fail(time.Now(), "compile: %v", err)
		return pendingOp{}, false
	}
	s.cur.begin(spFrame)
	inner, err := s.gen.NextFrame(s.prog, s.payload)
	s.cur.end()
	if err != nil {
		ph.fail(time.Now(), "frame: %v", err)
		return pendingOp{}, false
	}
	kind := s.forgeKind()
	hops := uint64(len(s.names))
	switch kind {
	case corrupt:
		r := s.forge.next()
		at := s.names[r%hops]
		ev := corruptCopy(s.stale, int((r>>8)%uint64(countSigs(s.stale))))
		s.cur.begin(spWrap)
		frame := pera.Push(&pera.Header{Policy: compiled.Policy, Evidence: ev}, inner)
		s.cur.end()
		// The forger sits just upstream of `at`: its Verify stage must
		// drop the frame before any work is done on its behalf.
		s.got = nil
		s.cur.begin(spSend)
		err := s.net.Inject(at, 1, frame)
		s.cur.end()
		s.tb.Client.Clear()
		exp["input.forged_sig"]++
		exp["packets"]++
		exp["verify_ops"]++
		exp["verify_fails"]++
		exp["verify_fails."+at]++
		exp["deliveries"]++
		done := time.Now()
		switch {
		case err != nil:
			ph.fail(done, "forged frame at %s: %v", at, err)
		case s.got != nil:
			ph.fail(done, "forged frame injected at %s reached the client", at)
		default:
			ph.record(sample{done: ph.since(done), verdict: -1, transit: -1, ok: true})
		}
		return pendingOp{}, false
	case replay:
		exp["input.forged_replay"]++
		exp["pool_fail"]++
		s.cur.begin(spWrap)
		frame := pera.Push(&pera.Header{Policy: compiled.Policy, Evidence: s.stale}, inner)
		s.cur.end()
		return s.deliver(ph, exp, start, frame, nonce, replay)
	default:
		exp["pool_pass"]++
		s.cur.begin(spWrap)
		frame := pera.WrapFrame(compiled.Policy, inner)
		s.cur.end()
		return s.deliver(ph, exp, start, frame, nonce, honest)
	}
}

// forgeKind decides whether the next op of inband-guarded is forged: one
// op in each block of forgeOneIn, at a seeded position, the kind
// alternating block by block — so every seed forges the same share of
// each kind and only the positions move.
func (s *inband) forgeKind() int {
	if s.kind != "inband-guarded" {
		return honest
	}
	n := uint64(s.ops - 1) // this op's index since setup
	block, pos := n/forgeOneIn, n%forgeOneIn
	if pos == 0 {
		s.forgeAt = s.forge.next() % forgeOneIn
	}
	if pos != s.forgeAt || s.stale == nil {
		return honest
	}
	return corrupt + int(block%2)
}

// deliver sends a frame that every hop must forward and returns it as a
// pending appraisal job.
func (s *inband) deliver(ph *phase, exp counts, start time.Time, frame, nonce []byte, forged int) (pendingOp, bool) {
	hops := uint64(len(s.names))
	exp["packets"] += hops
	exp["signs"] += hops
	exp["deliveries"] += hops + 2 // every switch, the DPI appliance if any, the client
	if s.kind == "inband-guarded" {
		exp["deliveries"]--
		exp["verify_ops"] += hops
	}
	got, transit, err := s.send(frame)
	if err != nil || got == nil {
		ph.fail(time.Now(), "attested frame not delivered (err=%v)", err)
		return pendingOp{}, false
	}
	s.cur.begin(spUnwrap)
	hdr, _, err := pera.UnwrapFrame(got)
	s.cur.end()
	if err != nil {
		ph.fail(time.Now(), "delivered frame: %v", err)
		return pendingOp{}, false
	}
	if forged == honest && s.kind == "inband-guarded" {
		s.stale = hdr.Evidence
	}
	s.cap.chain(hdr.Evidence)
	return pendingOp{start: start, delivered: s.gotAt, transit: transit, forged: forged,
		job: appraiser.Job{Subject: subject, Evidence: hdr.Evidence, Nonce: nonce}}, true
}

func (s *inband) appraiseWindow(ph *phase, pending []pendingOp, exp counts) {
	jobs := make([]appraiser.Job, len(pending))
	for i := range pending {
		jobs[i] = pending[i].job
	}
	s.cur.begin(spWindow)
	wstart := time.Now()
	results := s.pool.AppraiseAll(jobs)
	wend := time.Now()
	s.cur.end()
	if s.cap != nil {
		s.cap.windows++
		s.cap.windowNs += int64(wend.Sub(wstart))
		for _, p := range pending {
			s.cap.waitNs += int64(wstart.Sub(p.delivered))
		}
	}
	for i, r := range results {
		p := pending[i]
		ok := s.checkCert(ph, r.Certificate, r.Err, p.job.Nonce, p.forged)
		s := sample{done: ph.since(time.Now()), verdict: int64(wend.Sub(p.start)), transit: p.transit, ok: ok}
		if p.forged != honest {
			// Latencies describe honest traffic; a replay's longer chain
			// would otherwise put a seed-dependent mode into the tail.
			s.verdict, s.transit = -1, -1
		}
		ph.record(s)
	}
}

// checkCert is the relying party's oracle: an honest chain must be
// accepted with a certificate that verifies under the appraiser's key and
// binds the op's nonce; a replayed chain must be rejected by the nonce
// check. Failures are printed.
func (s *inband) checkCert(ph *phase, cert *appraiser.Certificate, err error, nonce []byte, forged int) bool {
	if err != nil {
		ph.mismatchNote("appraisal error: %v", err)
		return false
	}
	s.cur.begin(spCertVerify)
	verr := appraiser.VerifyCertificate(s.pub, cert)
	s.cur.end()
	switch {
	case verr != nil:
		ph.mismatchNote("certificate does not verify: %v", verr)
		return false
	case !bytes.Equal(cert.Nonce, nonce):
		ph.mismatchNote("certificate binds the wrong nonce")
		return false
	case forged == replay:
		if cert.Verdict || cert.Reason != appraiser.ErrNonceMissing.Error() {
			ph.mismatchNote("replayed chain not rejected by the nonce check: verdict=%v reason=%q", cert.Verdict, cert.Reason)
			return false
		}
		return true
	case !cert.Verdict:
		ph.mismatchNote("honest chain rejected: %s", cert.Reason)
		return false
	}
	return true
}

// sampledOp sends one packet of inband-sampled; every sampleEvery-th
// packet carries hop evidence and is appraised on arrival.
func (s *inband) sampledOp(ph *phase, exp counts) {
	s.ops++
	s.cur.setOp(s.ops)
	s.cur.begin(spOp)
	defer s.cur.end()
	start := time.Now()
	s.cur.begin(spFrame)
	f := s.gen.NextFlow()
	inner, err := pisa.IPFrame(s.prog, f.Src, f.Dst, f.SPort, f.DPort, s.payload)
	s.cur.end()
	if err != nil {
		ph.fail(time.Now(), "frame: %v", err)
		return
	}
	evidenced := s.ops%sampleEvery == 0 // every switch's sampler has seen s.ops packets
	hops := uint64(len(s.names))
	exp["packets"] += hops
	exp["deliveries"] += hops + 2
	if evidenced {
		exp["signs"] += hops
		exp["input.evidenced"]++
	} else {
		exp["sample_skips"] += hops
	}
	s.cur.begin(spWrap)
	frame := pera.WrapFrame(s.policies[f.SPort-40000], inner)
	s.cur.end()
	got, transit, err := s.send(frame)
	if err != nil || got == nil {
		ph.fail(time.Now(), "attested frame not delivered (err=%v)", err)
		return
	}
	s.cur.begin(spUnwrap)
	hdr, _, err := pera.UnwrapFrame(got)
	s.cur.end()
	if err != nil {
		ph.fail(time.Now(), "delivered frame: %v", err)
		return
	}
	if hasSig := hdr.Evidence.Kind == evidence.KindSig; hasSig != evidenced {
		ph.fail(time.Now(), "packet %d: carries hop evidence = %v, sampler period %d says %v", s.ops, hasSig, sampleEvery, evidenced)
		return
	}
	if !evidenced {
		ph.record(sample{done: ph.since(time.Now()), verdict: -1, transit: transit, ok: true})
		return
	}
	s.cap.chain(hdr.Evidence)
	s.cur.begin(spAppraise)
	cert, err := s.tb.Appraiser.Appraise(subject, hdr.Evidence, nil)
	s.cur.end()
	done := time.Now()
	ok := s.checkCert(ph, cert, err, nil, honest)
	ph.record(sample{done: ph.since(done), verdict: int64(done.Sub(start)), transit: transit, ok: ok})
}

// snapshot reads the layers' own counters.
func (s *inband) snapshot() counts {
	c := counts{}
	for _, name := range s.names {
		st := s.tb.Switches[name].Stats()
		c["packets"] += st.Packets
		c["signs"] += st.SignOps
		c["sample_skips"] += st.SampleSkips
		c["verify_ops"] += st.VerifyOps
		c["verify_fails"] += st.VerifyFails
		c["verify_fails."+name] = st.VerifyFails
		c["inband_bytes"] += st.InBandBytes
	}
	addBatch(c)
	ms := s.tb.Appraiser.MemoStats()
	c["memo_hits"], c["memo_misses"] = ms.Hits, ms.Misses
	for _, m := range s.memos {
		st := m.Stats()
		c["memo_hits"] += st.Hits
		c["memo_misses"] += st.Misses
	}
	cs := s.cache.Stats()
	c["cache_hits"], c["cache_misses"] = cs.Hits, cs.Misses
	c["deliveries"] = s.net.Deliveries()
	c["dropped"] = s.net.Dropped()
	if s.pool != nil {
		ps := s.pool.Stats()
		c["pool_pass"], c["pool_fail"], c["pool_errors"] = ps.Pass, ps.Fail, ps.Errors
	}
	return c
}

func addBatch(c counts) {
	bs := evidence.ReadBatchStats()
	c["batch_windows"], c["batch_sigs"] = bs.Batches, bs.Sigs
	c["batch_fallbacks"], c["batch_memo_skips"] = bs.Fallbacks, bs.MemoSkips
}

// countSigs returns the number of signature nodes in e.
func countSigs(e *evidence.Evidence) int {
	return len(sigNodes(e, nil))
}

func sigNodes(e *evidence.Evidence, out []*evidence.Evidence) []*evidence.Evidence {
	if e == nil {
		return out
	}
	if e.Kind == evidence.KindSig {
		out = append(out, e)
	}
	return sigNodes(e.Right, sigNodes(e.Left, out))
}

// corruptCopy returns a deep copy of e with one bit of its i-th
// signature flipped.
func corruptCopy(e *evidence.Evidence, i int) *evidence.Evidence {
	cp, err := evidence.Decode(evidence.Encode(e))
	if err != nil {
		panic(fmt.Sprintf("re-decoding a delivered chain: %v", err))
	}
	n := sigNodes(cp, nil)[i]
	n.Signature = append([]byte(nil), n.Signature...)
	n.Signature[0] ^= 0x01
	return cp
}

// xorshift is a seeded, deterministic generator for forgery positions.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	if v == 0 {
		v = 1
	}
	v ^= v >> 12
	v ^= v << 25
	v ^= v >> 27
	*x = xorshift(v)
	return v * 0x2545F4914F6CDD1D
}

// seededBytes returns n payload bytes derived from seed.
func seededBytes(seed uint64, n int) []byte {
	x := xorshift(seed)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(x.next() >> 56)
	}
	return b
}

// wrapNetwork rebuilds src's topology with every node passed through
// wrap — how the traced run puts a timing node in front of each switch.
// Routes live in the switches' tables, so none need reinstalling.
func wrapNetwork(src *netsim.Network, wrap func(netsim.Node) netsim.Node) *netsim.Network {
	dst := netsim.New()
	names := src.Nodes()
	for _, name := range names {
		n, _ := src.Node(name)
		dst.MustAdd(wrap(n))
	}
	for _, name := range names {
		for _, adj := range src.NeighborsOf(name) {
			if name < adj.Peer || (name == adj.Peer && adj.Port < adj.PeerPort) {
				dst.MustLink(name, adj.Port, adj.Peer, adj.PeerPort)
			}
		}
	}
	return dst
}

// hopNode times one switch's Receive as a span and captures the frames
// it sees for the replay probes.
type hopNode struct {
	sw       *pera.Switch
	cur      *cursor
	verifies bool // the switch runs the Verify stage
	cap      *captured

	ns, n             int64 // all hops
	verifyNs, verifyN int64 // hops on frames the Verify stage counted
}

func (h *hopNode) Name() string { return h.sw.Name() }

func (h *hopNode) Receive(port uint64, frame []byte) ([]netsim.Emission, error) {
	h.cap.hop(h.sw, port, frame)
	h.cur.begin(spHop)
	out, err := h.sw.Receive(port, frame)
	d := h.cur.end()
	h.ns += d
	h.n++
	if h.verifies && pera.HasHeader(frame) {
		h.verifyNs += d
		h.verifyN++
	}
	return out, err
}

// timedSigner times the Sign stage's calls into the switch RoT.
type timedSigner struct {
	inner evidence.Signer
	cur   *cursor
}

func (t *timedSigner) Name() string { return t.inner.Name() }

func (t *timedSigner) Sign(message []byte) []byte {
	t.cur.begin(spSign)
	sig := t.inner.Sign(message)
	t.cur.end()
	return sig
}
