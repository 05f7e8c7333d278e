package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"pera/internal/appraiser"
	"pera/internal/auditlog"
	"pera/internal/evidence"
	"pera/internal/pera"
	"pera/internal/rats"
	"pera/internal/usecases"
)

// oob-rats: the out-of-band Fig. 1 loop over loopback TCP, as the
// attestd/appraised daemons deploy it. Two relying parties run closed
// loops, each with its own pair of connections: one to the attester
// serving its switch, one to the shared appraiser. Both ends keep an
// audit ledger.

var oobClaims = []string{"hardware", "program", "tables"}

type oob struct {
	tb        *usecases.Testbed
	sws       []*pera.Switch // one attested switch per client
	lns       []net.Listener
	ledgers   []*auditlog.Writer
	paths     []string
	keys      [][]byte
	clients   []*oobClient
	pub       []byte
	tr        *tracer
	attesters []*cursor // one per switch: its server goroutine's spans
	capMu     sync.Mutex
	cap       *captured
	closeNs   int64
}

type oobClient struct {
	k         int
	att, appr *rats.Conn
	cur       *cursor
	nonceTag  string
	n         uint64
	callSpan  atomic.Int64 // the span of the Call in flight (traced runs)
	ops       int64
}

func newOOB(seed uint64, workdir string, tr *tracer) (*oob, error) {
	tb, err := usecases.NewTestbed(pera.Config{})
	if err != nil {
		return nil, err
	}
	s := &oob{tb: tb, tr: tr, pub: tb.Appraiser.Public()}
	if tr != nil {
		s.cap = newCaptured()
	}
	if err := s.start(seed, workdir); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *oob) start(seed uint64, workdir string) error {
	a := s.tb.Appraiser
	a.RequireNonce = true
	a.EnableMemo(0)
	open := func(name string, key []byte) (*auditlog.Writer, error) {
		path := filepath.Join(workdir, fmt.Sprintf("ledger-%s.jsonl", name))
		w, err := auditlog.Create(path, auditlog.Options{KeyID: name, Key: key})
		if err != nil {
			return nil, err
		}
		s.ledgers, s.paths, s.keys = append(s.ledgers, w), append(s.paths, path), append(s.keys, key)
		return w, nil
	}
	// The clients exist before any listener serves, so the handlers'
	// reads of their call spans are ordered after these writes.
	names := []string{usecases.SwFirewall, usecases.SwACL}
	for k := range names {
		c := &oobClient{k: k, nonceTag: fmt.Sprintf("s%d-c%d", seed, k)}
		if s.tr != nil {
			c.cur = s.tr.cursor()
		}
		s.clients = append(s.clients, c)
	}
	aw, err := open("appraiser", auditlog.DevKey())
	if err != nil {
		return err
	}
	a.SetAudit(aw)
	appraiseH := a.Handler()
	if s.tr != nil {
		inner := appraiseH
		appraiseH = func(req *rats.Message) *rats.Message {
			c := s.tr.cursor()
			c.setOp(int64(req.Session))
			c.beginUnder(spHandle, s.clients[req.Session%2].callSpan.Load())
			resp := inner(req)
			c.end()
			return resp
		}
	}
	aln, err := rats.ListenAndServe("127.0.0.1:0", appraiseH)
	if err != nil {
		return err
	}
	s.lns = append(s.lns, aln)
	for k, name := range names {
		sw := s.tb.Switches[name]
		w, err := open(name, sw.RoT().AuditKey())
		if err != nil {
			return err
		}
		sw.SetAudit(w)
		s.sws = append(s.sws, sw)
		c := s.clients[k]
		h := sw.AttesterHandler()
		if s.tr != nil {
			acur := s.tr.cursor()
			s.attesters = append(s.attesters, acur)
			sw.SetSigner(&timedSigner{inner: sw.RoT(), cur: acur})
			inner := h
			h = func(req *rats.Message) *rats.Message {
				acur.setOp(int64(req.Session))
				acur.beginUnder(spAttest, c.callSpan.Load())
				resp := inner(req)
				acur.end()
				return resp
			}
		}
		ln, err := rats.ListenAndServe("127.0.0.1:0", h)
		if err != nil {
			return err
		}
		s.lns = append(s.lns, ln)
		if c.att, err = rats.Dial(ln.Addr().String()); err != nil {
			return err
		}
		if c.appr, err = rats.Dial(aln.Addr().String()); err != nil {
			return err
		}
	}
	return nil
}

func (s *oob) concurrency() int { return len(s.clients) }

func (s *oob) run(ph *phase) {
	before := s.snapshot()
	rounds := make([]uint64, len(s.clients))
	var wg sync.WaitGroup
	for _, c := range s.clients {
		wg.Add(1)
		go func(c *oobClient) {
			defer wg.Done()
			for n := 0; ph.more(n * len(s.clients)); n++ {
				c.round(s, ph)
				rounds[c.k]++
			}
		}(c)
	}
	wg.Wait()
	ph.end = time.Now()
	for _, w := range s.ledgers {
		w.Flush() // so records + dropped counts every emission of the phase
	}
	ph.delta = s.snapshot().sub(before)
	exp := counts{}
	for k, sw := range s.sws {
		exp["signs."+sw.Name()] = rounds[k]
	}
	ph.expect(exp)
}

// round is one Fig. 1 exchange: challenge the attester for hardware,
// program and tables; submit the evidence for appraisal; decode the
// certificate and check it under the appraiser's key.
func (c *oobClient) round(s *oob, ph *phase) {
	c.ops++
	op := c.ops*2 + int64(c.k) // Session carries the op id; its low bit names the client
	c.cur.setOp(op)
	c.cur.begin(spOp)
	defer c.cur.end()
	start := time.Now()
	c.n++
	nonce := []byte(fmt.Sprintf("%s-%d", c.nonceTag, c.n))
	ch := &rats.Message{Type: rats.MsgChallenge, Session: uint64(op), Nonce: nonce, Claims: oobClaims}
	c.callSpan.Store(c.cur.begin(spChallenge))
	t := time.Now()
	resp, err := c.att.Call(ch)
	transit := int64(time.Since(t))
	c.cur.end()
	if err != nil {
		ph.fail(time.Now(), "client %d challenge: %v", c.k, err)
		return
	}
	ap := &rats.Message{Type: rats.MsgAppraise, Session: uint64(op), Nonce: nonce, Claims: []string{subject}, Body: resp.Body}
	c.callSpan.Store(c.cur.begin(spAppraiseRPC))
	res, err := c.appr.Call(ap)
	c.cur.end()
	if err != nil {
		ph.fail(time.Now(), "client %d appraise: %v", c.k, err)
		return
	}
	c.cur.begin(spCertVerify)
	cert, err := appraiser.DecodeCertificate(res.Body)
	if err == nil {
		err = appraiser.VerifyCertificate(s.pub, cert)
	}
	c.cur.end()
	done := time.Now()
	switch {
	case err != nil:
		ph.fail(done, "client %d certificate: %v", c.k, err)
		return
	case !cert.Verdict:
		ph.fail(done, "client %d: honest evidence rejected: %s", c.k, cert.Reason)
		return
	case !bytes.Equal(cert.Nonce, nonce):
		ph.fail(done, "client %d: certificate binds the wrong nonce", c.k)
		return
	}
	if s.cap != nil {
		// The first captureCap rounds feed the probes and the wire-size
		// count; the rest pay no capture cost.
		s.capMu.Lock()
		if s.cap.ratsMsgs < captureCap {
			if ev, err := evidence.Decode(resp.Body); err == nil {
				s.cap.chain(ev)
			}
			s.cap.ratsMsgs++
			s.cap.ratsBytes += int64(len(rats.Encode(ch)) + len(rats.Encode(resp)) + len(rats.Encode(ap)) + len(rats.Encode(res)) + 4*4)
		}
		s.capMu.Unlock()
	}
	ph.record(sample{done: ph.since(done), verdict: int64(done.Sub(start)), transit: transit, ok: true})
}

func (s *oob) snapshot() counts {
	c := counts{}
	for _, sw := range s.sws {
		st := sw.Stats()
		c["signs."+sw.Name()] = st.SignOps
		c["signs"] += st.SignOps
	}
	addBatch(c)
	ms := s.tb.Appraiser.MemoStats()
	c["memo_hits"], c["memo_misses"] = ms.Hits, ms.Misses
	for _, w := range s.ledgers {
		c["audit_records"] += w.Records()
		c["audit_dropped"] += w.Dropped()
		c["audit_emitted"] += w.Records() + w.Dropped()
		c["audit_bytes"] += w.Bytes()
	}
	return c
}

// close stops the clients, listeners and ledgers, then checks every
// ledger offline: its HMAC chain must verify and hold exactly the
// records its writer reports.
func (s *oob) close() []string {
	for _, c := range s.clients {
		if c.att != nil {
			c.att.Close()
		}
		if c.appr != nil {
			c.appr.Close()
		}
	}
	for _, ln := range s.lns {
		ln.Close()
	}
	var bad []string
	t := time.Now()
	for _, w := range s.ledgers {
		if err := w.Close(); err != nil {
			bad = append(bad, fmt.Sprintf("ledger close: %v", err))
		}
	}
	s.closeNs = int64(time.Since(t))
	for i, w := range s.ledgers {
		n, err := auditlog.VerifyFile(s.paths[i], s.keys[i])
		switch {
		case err != nil:
			bad = append(bad, fmt.Sprintf("ledger %s: %v", filepath.Base(s.paths[i]), err))
		case uint64(n) != w.Records():
			bad = append(bad, fmt.Sprintf("ledger %s: verified %d records, writer reports %d", filepath.Base(s.paths[i]), n, w.Records()))
		}
	}
	if s.cap != nil && len(s.paths) > 0 {
		// The appraiser's records feed the ledger-append replay probe.
		recs, err := auditlog.ReadLedger(s.paths[0])
		if err != nil {
			bad = append(bad, fmt.Sprintf("ledger %s: %v", filepath.Base(s.paths[0]), err))
		}
		if len(recs) > captureRecords {
			recs = recs[:captureRecords]
		}
		s.cap.records = recs
	}
	for _, p := range s.paths {
		// A run writes hundreds of MB of ledger; keep none of it.
		os.Remove(p)
	}
	return bad
}
