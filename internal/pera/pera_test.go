package pera

import (
	"errors"
	"sync"
	"testing"

	"pera/internal/evidence"
	"pera/internal/netsim"
	"pera/internal/p4ir"
	"pera/internal/pisa"
	"pera/internal/rats"
)

func newSwitch(t *testing.T, name string, cfg Config) *Switch {
	t.Helper()
	s, err := New(name, p4ir.NewForwarding("fwd_v1.p4"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Instance().InstallEntry("ipv4_fwd", p4ir.Entry{
		Matches: []p4ir.KeyMatch{{Value: 200}},
		Action:  "fwd", Params: map[string]uint64{"port": 2},
	}); err != nil {
		t.Fatal(err)
	}
	return s
}

func testFrame(t *testing.T, s *Switch) []byte {
	t.Helper()
	f, err := pisa.IPFrame(s.Instance().Program(), 100, 200, 40000, 443, []byte("data"))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestPolicyCodecRoundTrip(t *testing.T) {
	p := &Policy{
		ID:    7,
		Nonce: []byte("nn"),
		Obls: []Obligation{
			{
				Place:        "sw1",
				Guards:       []Guard{{Field: "ip.dst", Value: 200}, {Field: "tp.dport", Value: 443}},
				Claims:       []evidence.Detail{evidence.DetailProgram, evidence.DetailTables},
				HashEvidence: true, SignEvidence: true,
				Appraiser: "Appraiser",
			},
			{Claims: []evidence.Detail{evidence.DetailHardware}, SignEvidence: true},
		},
	}
	got, err := DecodePolicy(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 7 || string(got.Nonce) != "nn" || len(got.Obls) != 2 {
		t.Fatalf("header: %+v", got)
	}
	o := got.Obls[0]
	if o.Place != "sw1" || len(o.Guards) != 2 || o.Guards[1].Value != 443 ||
		len(o.Claims) != 2 || !o.HashEvidence || !o.SignEvidence || o.Appraiser != "Appraiser" {
		t.Fatalf("obligation: %+v", o)
	}
	if got.Obls[1].Place != "" || got.Obls[1].HashEvidence {
		t.Fatalf("second obligation: %+v", got.Obls[1])
	}
}

func TestPolicyDecodeGarbage(t *testing.T) {
	good := (&Policy{Obls: []Obligation{{Claims: []evidence.Detail{evidence.DetailProgram}}}}).Encode()
	cases := [][]byte{
		nil,
		good[:3],
		append(append([]byte(nil), good...), 9),
		{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF}, // huge obl count
	}
	for i, data := range cases {
		if _, err := DecodePolicy(data); err == nil {
			t.Errorf("case %d decoded", i)
		}
	}
	// Invalid detail byte inside an obligation.
	bad := append([]byte(nil), good...)
	// Find the claim byte (last-but-flags-and-appraiser); simpler: craft
	// a policy manually with detail 200.
	p := &Policy{Obls: []Obligation{{Claims: []evidence.Detail{evidence.Detail(200)}}}}
	if _, err := DecodePolicy(p.Encode()); err == nil {
		t.Error("invalid detail decoded")
	}
	_ = bad
}

func TestHeaderPushPop(t *testing.T) {
	pol := &Policy{ID: 1, Nonce: []byte("n"), Obls: []Obligation{{Claims: []evidence.Detail{evidence.DetailProgram}, SignEvidence: true}}}
	inner := []byte("inner-frame-bytes")
	wire := WrapFrame(pol, inner)
	if !HasHeader(wire) {
		t.Fatal("no magic")
	}
	hdr, rest, err := Pop(wire)
	if err != nil {
		t.Fatal(err)
	}
	if string(rest) != string(inner) {
		t.Fatalf("inner: %q", rest)
	}
	if hdr.Policy.ID != 1 || len(evidence.Nonces(hdr.Evidence)) != 1 {
		t.Fatalf("header: %+v", hdr)
	}
	if HeaderOverhead(hdr) != len(wire)-len(inner) {
		t.Fatalf("overhead %d, want %d", HeaderOverhead(hdr), len(wire)-len(inner))
	}
}

func TestHeaderErrors(t *testing.T) {
	if _, _, err := Pop([]byte("ETH frame")); !errors.Is(err, ErrNoHeader) {
		t.Fatalf("no header: %v", err)
	}
	if HasHeader([]byte("PE")) {
		t.Fatal("short magic matched")
	}
	// Bad version.
	bad := append([]byte("PERA"), 99)
	if _, _, err := Pop(append(bad, 0, 0, 0, 0)); err == nil {
		t.Fatal("bad version accepted")
	}
	// Truncated after magic.
	if _, _, err := Pop([]byte("PERA")); err == nil {
		t.Fatal("truncated header accepted")
	}
	// Truncated policy length.
	if _, _, err := Pop([]byte{'P', 'E', 'R', 'A', 1, 0, 0}); err == nil {
		t.Fatal("truncated length accepted")
	}
}

func TestSwitchBootMeasurements(t *testing.T) {
	s := newSwitch(t, "sw1", Config{})
	log := s.RoT().EventLog()
	if len(log) != 2 || log[0].PCR != PCRHardware || log[1].PCR != PCRProgram {
		t.Fatalf("boot log: %v", log)
	}
	p4, _ := s.RoT().PCR(PCRProgram)
	if p4.IsZero() {
		t.Fatal("program PCR empty")
	}
}

func TestAttestProducesVerifiableEvidence(t *testing.T) {
	s := newSwitch(t, "sw1", Config{})
	nonce := []byte("challenge-nonce")
	ev, err := s.Attest(nonce, evidence.DetailHardware, evidence.DetailProgram, evidence.DetailTables)
	if err != nil {
		t.Fatal(err)
	}
	keys := evidence.KeyMap{"sw1": s.RoT().Public()}
	if _, err := evidence.VerifySignatures(ev, keys); err != nil {
		t.Fatalf("signature: %v", err)
	}
	ns := evidence.Nonces(ev)
	if len(ns) != 1 || string(ns[0]) != string(nonce) {
		t.Fatal("nonce not bound")
	}
	ms := evidence.Measurements(ev)
	if len(ms) != 3 {
		t.Fatalf("measurements: %v", ms)
	}
	if ms[1].Target != "fwd_v1.p4" || ms[1].Value != s.Instance().ProgramDigest() {
		t.Fatalf("program claim: %v", ms[1])
	}
	if len(ms[0].Claims) == 0 {
		t.Fatal("hardware claim lacks quote binding")
	}
}

func TestClaimValues(t *testing.T) {
	s := newSwitch(t, "sw1", Config{})
	for _, d := range evidence.Details() {
		target, v, err := s.ClaimValue(d, []byte("frame"))
		if err != nil || target == "" || v.IsZero() {
			t.Errorf("%v: %q %v %v", d, target, v, err)
		}
	}
	if _, _, err := s.ClaimValue(evidence.Detail(99), nil); err == nil {
		t.Fatal("unknown detail accepted")
	}
}

func TestGoldenMatchesClaims(t *testing.T) {
	s := newSwitch(t, "sw1", Config{})
	gs, err := s.Golden(evidence.DetailProgram, evidence.DetailTables)
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != 2 || gs[0].Value != s.Instance().ProgramDigest() || gs[1].Value != s.Instance().TablesDigest() {
		t.Fatalf("golden: %+v", gs)
	}
	if _, err := s.Golden(evidence.Detail(99)); err == nil {
		t.Fatal("bad golden detail")
	}
}

func TestReloadProgramChangesAttestation(t *testing.T) {
	s := newSwitch(t, "sw1", Config{})
	before, _ := s.RoT().PCR(PCRProgram)
	if err := s.ReloadProgram(p4ir.NewRogueForwarding("fwd_v1.p4", 99)); err != nil {
		t.Fatal(err)
	}
	after, _ := s.RoT().PCR(PCRProgram)
	if before == after {
		t.Fatal("reload invisible in PCR")
	}
	_, v, _ := s.ClaimValue(evidence.DetailProgram, nil)
	if v != p4ir.NewRogueForwarding("fwd_v1.p4", 99).Digest() {
		t.Fatal("program claim not updated")
	}
	// Boot log shows both programs — the swap cannot be hidden.
	if len(s.RoT().EventLog()) != 3 {
		t.Fatalf("log: %v", s.RoT().EventLog())
	}
	if err := s.ReloadProgram(p4ir.NewForwarding("")); err == nil {
		t.Fatal("invalid reload accepted")
	}
}

func TestOutOfBandStandingObligation(t *testing.T) {
	s := newSwitch(t, "sw1", Config{
		Standing: []Obligation{{
			Claims:       []evidence.Detail{evidence.DetailProgram},
			SignEvidence: true,
			Appraiser:    "Appraiser",
		}},
	})
	var got []*evidence.Evidence
	var appr string
	s.SetSink(func(sw, appraiser string, ev *evidence.Evidence) {
		got = append(got, ev)
		appr = appraiser
	})
	outs, err := s.Receive(1, testFrame(t, s))
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 || outs[0].Port != 2 {
		t.Fatalf("forwarding: %+v", outs)
	}
	if len(got) != 1 || appr != "Appraiser" {
		t.Fatalf("sink: %d msgs to %q", len(got), appr)
	}
	if _, err := evidence.VerifySignatures(got[0], evidence.KeyMap{"sw1": s.RoT().Public()}); err != nil {
		t.Fatalf("oob evidence: %v", err)
	}
	st := s.Stats()
	if st.Packets != 1 || st.Attested != 1 || st.OutOfBandMsgs != 1 || st.SignOps != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestGuardGatesAttestation(t *testing.T) {
	s := newSwitch(t, "sw1", Config{
		Standing: []Obligation{{
			Guards: []Guard{{Field: "tp.dport", Value: 22}}, // frame has 443
			Claims: []evidence.Detail{evidence.DetailProgram},
		}},
	})
	n := 0
	s.SetSink(func(string, string, *evidence.Evidence) { n++ })
	if _, err := s.Receive(1, testFrame(t, s)); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatal("guard did not gate")
	}
	if s.Stats().GuardRejects != 1 {
		t.Fatalf("stats: %+v", s.Stats())
	}
	// Matching guard attests.
	s.SetConfig(Config{Standing: []Obligation{{
		Guards: []Guard{{Field: "tp.dport", Value: 443}},
		Claims: []evidence.Detail{evidence.DetailProgram},
	}}})
	if _, err := s.Receive(1, testFrame(t, s)); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatal("matching guard did not attest")
	}
}

func TestObligationPlaceBinding(t *testing.T) {
	s := newSwitch(t, "sw1", Config{
		Standing: []Obligation{{
			Place:  "sw9", // someone else's duty
			Claims: []evidence.Detail{evidence.DetailProgram},
		}},
	})
	n := 0
	s.SetSink(func(string, string, *evidence.Evidence) { n++ })
	s.Receive(1, testFrame(t, s))
	if n != 0 {
		t.Fatal("foreign obligation executed")
	}
}

func TestInBandChainedComposition(t *testing.T) {
	cfg := func() Config {
		return Config{InBand: true, Composition: evidence.Chained}
	}
	sw1 := newSwitch(t, "sw1", cfg())
	sw2 := newSwitch(t, "sw2", cfg())

	pol := &Policy{
		ID:    1,
		Nonce: []byte("n"),
		Obls: []Obligation{{
			Claims:       []evidence.Detail{evidence.DetailProgram},
			SignEvidence: true,
			Appraiser:    "Appraiser",
		}},
	}
	wire := WrapFrame(pol, testFrame(t, sw1))

	outs, err := sw1.Receive(1, wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 || !HasHeader(outs[0].Frame) {
		t.Fatalf("sw1 out: %d frames, header=%v", len(outs), HasHeader(outs[0].Frame))
	}
	outs, err = sw2.Receive(1, outs[0].Frame)
	if err != nil {
		t.Fatal(err)
	}
	hdr, inner, err := UnwrapFrame(outs[0].Frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(inner) == 0 {
		t.Fatal("inner frame lost")
	}
	// The chain: sig[sw2](seq(sig[sw1](seq(nonce, m1)), m2)).
	keys := evidence.KeyMap{"sw1": sw1.RoT().Public(), "sw2": sw2.RoT().Public()}
	nsigs, err := evidence.VerifySignatures(hdr.Evidence, keys)
	if err != nil {
		t.Fatalf("chain: %v", err)
	}
	if nsigs != 2 {
		t.Fatalf("signatures: %d", nsigs)
	}
	signers := evidence.Signers(hdr.Evidence)
	if len(signers) != 2 || signers[0] != "sw2" || signers[1] != "sw1" {
		t.Fatalf("signers: %v", signers)
	}
	ms := evidence.Measurements(hdr.Evidence)
	if len(ms) != 2 || ms[0].Place != "sw1" || ms[1].Place != "sw2" {
		t.Fatalf("hop order: %v", ms)
	}
	// Nonce survives the chain.
	if len(evidence.Nonces(hdr.Evidence)) != 1 {
		t.Fatal("nonce lost")
	}
}

func TestInBandPointwiseEmitsPerHop(t *testing.T) {
	sw1 := newSwitch(t, "sw1", Config{InBand: true, Composition: evidence.Pointwise})
	var oob int
	sw1.SetSink(func(string, string, *evidence.Evidence) { oob++ })
	pol := &Policy{Obls: []Obligation{{Claims: []evidence.Detail{evidence.DetailProgram}, SignEvidence: true}}}
	outs, err := sw1.Receive(1, WrapFrame(pol, testFrame(t, sw1)))
	if err != nil {
		t.Fatal(err)
	}
	if oob != 1 {
		t.Fatalf("pointwise oob msgs: %d", oob)
	}
	// Header still travels (with its original evidence).
	hdr, _, err := UnwrapFrame(outs[0].Frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(evidence.Signers(hdr.Evidence)) != 0 {
		t.Fatal("pointwise mode chained evidence into header")
	}
}

func TestInBandDisabledIgnoresHeader(t *testing.T) {
	s := newSwitch(t, "sw1", Config{InBand: false})
	pol := &Policy{Obls: []Obligation{{Claims: []evidence.Detail{evidence.DetailProgram}}}}
	wire := WrapFrame(pol, testFrame(t, s))
	// The header bytes are not valid eth/ip for the std parser, so the
	// pipeline drops the frame silently — matching a non-PERA device
	// that cannot interpret the options header in our frame encoding.
	outs, err := s.Receive(1, wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 0 {
		t.Fatalf("outs: %+v", outs)
	}
}

func TestSamplerGatesEvidence(t *testing.T) {
	s := newSwitch(t, "sw1", Config{
		Sampler:  evidence.NewSampler(evidence.SamplerConfig{Mode: evidence.SamplePerFlow}),
		Standing: []Obligation{{Claims: []evidence.Detail{evidence.DetailProgram}, SignEvidence: true}},
	})
	n := 0
	s.SetSink(func(string, string, *evidence.Evidence) { n++ })
	f := testFrame(t, s)
	for i := 0; i < 5; i++ {
		s.Receive(1, f)
	}
	if n != 1 {
		t.Fatalf("per-flow sampling produced %d evidences", n)
	}
	if s.Stats().SampleSkips != 4 {
		t.Fatalf("stats: %+v", s.Stats())
	}
}

func TestCacheReducesWork(t *testing.T) {
	cache := evidence.NewCache()
	s := newSwitch(t, "sw1", Config{
		Cache:    cache,
		Standing: []Obligation{{Claims: []evidence.Detail{evidence.DetailProgram}}},
	})
	s.SetSink(func(string, string, *evidence.Evidence) {})
	f := testFrame(t, s)
	for i := 0; i < 10; i++ {
		s.Receive(1, f)
	}
	st := cache.Stats()
	if st.Hits != 9 || st.Misses != 1 {
		t.Fatalf("cache stats: %+v", st)
	}
}

func TestHashEvidenceObligation(t *testing.T) {
	s := newSwitch(t, "sw1", Config{
		Standing: []Obligation{{
			Claims:       []evidence.Detail{evidence.DetailProgram},
			HashEvidence: true, SignEvidence: true,
		}},
	})
	var got *evidence.Evidence
	s.SetSink(func(_, _ string, ev *evidence.Evidence) { got = ev })
	s.Receive(1, testFrame(t, s))
	if got == nil || got.Kind != evidence.KindSig || got.Left.Kind != evidence.KindHash {
		t.Fatalf("shape: %v", got)
	}
}

func TestAttesterHandler(t *testing.T) {
	s := newSwitch(t, "sw1", Config{})
	h := s.AttesterHandler()
	resp := h(&rats.Message{
		Type: rats.MsgChallenge, Session: 5, Nonce: []byte("n"),
		Claims: []string{"hardware", "program", "tables"},
	})
	if resp.Type != rats.MsgEvidence {
		t.Fatalf("resp: %+v", resp)
	}
	ev, err := evidence.Decode(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(evidence.Measurements(ev)) != 3 {
		t.Fatalf("claims: %v", ev)
	}
	// Default claims.
	resp = h(&rats.Message{Type: rats.MsgChallenge})
	ev, _ = evidence.Decode(resp.Body)
	if len(evidence.Measurements(ev)) != 2 {
		t.Fatal("default claims")
	}
	// Errors.
	if h(&rats.Message{Type: rats.MsgRetrieve}).Type != rats.MsgError {
		t.Fatal("wrong type serviced")
	}
	if h(&rats.Message{Type: rats.MsgChallenge, Claims: []string{"ghost"}}).Type != rats.MsgError {
		t.Fatal("unknown claim serviced")
	}
}

func TestParseClaimsAndNames(t *testing.T) {
	ds, err := ParseClaims([]string{"hardware", "packets"})
	if err != nil || len(ds) != 2 || ds[1] != evidence.DetailPackets {
		t.Fatalf("parse: %v %v", ds, err)
	}
	if _, err := ParseClaims([]string{"nope"}); err == nil {
		t.Fatal("bad claim parsed")
	}
	for _, d := range evidence.Details() {
		if ClaimName(d) == "" {
			t.Fatalf("no name for %v", d)
		}
		back, err := ParseClaims([]string{ClaimName(d)})
		if err != nil || back[0] != d {
			t.Fatalf("round trip %v: %v %v", d, back, err)
		}
	}
}

func TestSwitchInNetsimTopology(t *testing.T) {
	// h1 -- pera(sw1) -- h2 with in-band chained attestation end to end.
	n := netsim.New()
	h1, h2 := netsim.NewHost("h1", 100), netsim.NewHost("h2", 200)
	n.MustAdd(h1)
	n.MustAdd(h2)
	sw, err := New("sw1", p4ir.NewForwarding("fwd_v1.p4"), Config{InBand: true, Composition: evidence.Chained})
	if err != nil {
		t.Fatal(err)
	}
	n.MustAdd(sw)
	n.MustLink("h1", netsim.HostPort, "sw1", 1)
	n.MustLink("sw1", 2, "h2", netsim.HostPort)
	if err := n.InstallRoutes([]*netsim.Host{h1, h2}, "ipv4_fwd", "fwd", "port"); err != nil {
		t.Fatal(err)
	}

	pol := &Policy{
		ID: 1, Nonce: []byte("e2e"),
		Obls: []Obligation{{Claims: []evidence.Detail{evidence.DetailProgram}, SignEvidence: true}},
	}
	inner, _ := pisa.IPFrame(sw.Instance().Program(), 100, 200, 1, 2, []byte("pay"))
	if err := n.Send("h1", netsim.HostPort, WrapFrame(pol, inner)); err != nil {
		t.Fatal(err)
	}
	if h2.ReceivedCount() != 1 {
		t.Fatal("frame not delivered")
	}
	hdr, rest, err := UnwrapFrame(h2.Received()[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) == 0 {
		t.Fatal("inner lost")
	}
	if _, err := evidence.VerifySignatures(hdr.Evidence, evidence.KeyMap{"sw1": sw.RoT().Public()}); err != nil {
		t.Fatalf("path evidence: %v", err)
	}
	if st := sw.Stats(); st.InBandBytes == 0 || st.EvidenceBytes == 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestResetStats(t *testing.T) {
	s := newSwitch(t, "sw1", Config{})
	s.Receive(1, testFrame(t, s))
	s.ResetStats()
	if s.Stats().Packets != 0 {
		t.Fatal("reset failed")
	}
}

// reconfiguringSigner flips its switch to Pointwise composition on its
// first signature: a configuration change landing between two
// obligations of one packet.
type reconfiguringSigner struct {
	evidence.Signer
	s    *Switch
	once sync.Once
}

func (r *reconfiguringSigner) Sign(msg []byte) []byte {
	r.once.Do(func() {
		cfg := r.s.Config()
		cfg.Composition = evidence.Pointwise
		r.s.SetConfig(cfg)
	})
	return r.Signer.Sign(msg)
}

// TestMidPacketConfigChangeKeepsChain checks that one packet is processed
// under one configuration: a Composition flip while the first of two
// obligations is being signed must not let the second obligation's
// evidence overwrite the in-band chain the first one built.
func TestMidPacketConfigChangeKeepsChain(t *testing.T) {
	s := newSwitch(t, "sw1", Config{InBand: true, Composition: evidence.Chained})
	s.SetSigner(&reconfiguringSigner{Signer: s.RoT(), s: s})
	pol := &Policy{ID: 1, Nonce: []byte("flip"), Obls: []Obligation{
		{Claims: []evidence.Detail{evidence.DetailProgram}, SignEvidence: true},
		{Claims: []evidence.Detail{evidence.DetailTables}, SignEvidence: true},
	}}
	out, err := s.Receive(1, WrapFrame(pol, testFrame(t, s)))
	if err != nil || len(out) != 1 {
		t.Fatalf("receive: %d emissions, err %v", len(out), err)
	}
	hdr, _, err := Pop(out[0].Frame)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(evidence.Measurements(hdr.Evidence)); n != 2 {
		t.Fatalf("egress chain carries %d measurements, want 2 (out-of-band msgs: %d)", n, s.Stats().OutOfBandMsgs)
	}
}
