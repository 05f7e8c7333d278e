// Package rats implements the remote-attestation message flow of the
// paper's Fig. 1, following the IETF RATS architecture roles: a Relying
// Party challenges an Attester with a nonce and a claim specification,
// the Attester answers with evidence, an Appraiser verifies the evidence
// and produces an attestation result. Messages have a compact binary wire
// form and travel over any io.ReadWriter — the package provides in-memory
// pipes for simulations and TCP framing for the cmd/ daemons.
package rats

import (
	"bufio"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"pera/internal/telemetry"
)

// MsgType discriminates protocol messages.
type MsgType uint8

const (
	// MsgChallenge: RP → Attester. Carries nonce and claim spec.
	MsgChallenge MsgType = iota + 1
	// MsgEvidence: Attester → RP/Appraiser. Body is encoded evidence.
	MsgEvidence
	// MsgAppraise: RP → Appraiser. Body is encoded evidence to verify.
	MsgAppraise
	// MsgResult: Appraiser → requester. Body is an encoded certificate.
	MsgResult
	// MsgRetrieve: RP2 → Appraiser. Asks for a stored certificate by
	// nonce (the out-of-band variant's retrieve(n)).
	MsgRetrieve
	// MsgError carries a failure reason in Body.
	MsgError
	// MsgExec asks a place to execute a serialized Copland term:
	// Claims[0] is the place name, Claims[1] the term source, Body the
	// execution payload (parameters + input evidence). The response is a
	// MsgEvidence whose Body is the resulting evidence and whose Claims
	// carry the remote execution trace. Used by distributed Copland
	// evaluation (copland.ServeEnv / Env.AddRemotePlace).
	MsgExec
	// MsgSign asks a crypto-offload service to sign Body under the
	// identity named by Claims[0]; the response is a MsgResult whose
	// Body is the detached signature. Used by the disaggregated
	// Sign/Verify stage (pera.SignerHandler / pera.RemoteSigner),
	// following the paper's note that evidence primitives "might be
	// remotely invoked by the programmable switch".
	MsgSign
)

var msgNames = map[MsgType]string{
	MsgChallenge: "challenge", MsgEvidence: "evidence", MsgAppraise: "appraise",
	MsgResult: "result", MsgRetrieve: "retrieve", MsgError: "error",
	MsgExec: "exec", MsgSign: "sign",
}

func (t MsgType) String() string {
	if n, ok := msgNames[t]; ok {
		return n
	}
	return fmt.Sprintf("msgtype(%d)", uint8(t))
}

// Message is the single wire envelope for all protocol messages. Fields
// unused by a type are left empty.
type Message struct {
	Type    MsgType
	Session uint64   // correlates request/response pairs
	Nonce   []byte   // freshness; also the retrieval key for MsgRetrieve
	Claims  []string // claim spec for challenges (e.g. "program","tables")
	Body    []byte   // evidence encoding, certificate encoding, or reason

	// Trace is the optional distributed-tracing context: the sender's
	// span, which the receiver parents its spans under so one RATS
	// exchange forms one trace across the socket. On the wire it rides
	// the tagged trailer section — absent entirely on pre-trace frames.
	Trace *TraceContext
	// Ext preserves unknown tagged trailer fields across a decode/encode
	// round trip, so this binary forwards fields a future peer defined.
	Ext []ExtField
}

// TraceContext is the wire trace-propagation field (tag extTagTrace):
// 16-byte trace ID, 8-byte sender span ID, and a flags byte whose low
// bit mirrors the sender's sampling decision. IDs are carried here in
// the telemetry layer's lowercase-hex form.
type TraceContext struct {
	TraceID string // 32 hex chars
	SpanID  string // 16 hex chars
	Sampled bool
}

// ExtField is one unrecognized tagged trailer field, kept verbatim.
type ExtField struct {
	Tag   uint8
	Value []byte
}

// Trailer field tags. Tags are a single byte; unknown tags are carried
// through Ext, so the space can grow without breaking old decoders.
const extTagTrace uint8 = 1

const traceWireLen = 16 + 8 + 1

func (tc *TraceContext) wire() []byte {
	v := make([]byte, traceWireLen)
	hexInto(v[0:16], tc.TraceID)
	hexInto(v[16:24], tc.SpanID)
	if tc.Sampled {
		v[24] = 1
	}
	return v
}

// hexInto fills dst from a hex string of exactly the right width;
// malformed IDs encode as zeros rather than corrupting the frame.
func hexInto(dst []byte, s string) {
	if b, err := hex.DecodeString(s); err == nil && len(b) == len(dst) {
		copy(dst, b)
	}
}

func parseTraceContext(v []byte) (*TraceContext, error) {
	if len(v) != traceWireLen {
		return nil, fmt.Errorf("%w: trace context length %d", ErrBadMessage, len(v))
	}
	return &TraceContext{
		TraceID: hex.EncodeToString(v[0:16]),
		SpanID:  hex.EncodeToString(v[16:24]),
		Sampled: v[24]&1 == 1,
	}, nil
}

// Context returns the propagated context in the telemetry layer's form
// (zero when the frame carried none), ready to parent local spans.
func (m *Message) Context() telemetry.SpanContext {
	if m.Trace == nil {
		return telemetry.SpanContext{}
	}
	return telemetry.SpanContext{TraceID: m.Trace.TraceID, SpanID: m.Trace.SpanID}
}

// SetContext stamps a local span context onto the outgoing message.
// Invalid (unsampled) contexts are a no-op, keeping the frame trailer
// absent on untraced flows.
func (m *Message) SetContext(ctx telemetry.SpanContext) {
	if !ctx.Valid() {
		return
	}
	m.Trace = &TraceContext{TraceID: ctx.TraceID, SpanID: ctx.SpanID, Sampled: true}
}

// FlowID names a message's flow for tracing and sampling: the hex of
// its nonce, matching the switch's flow IDs, or "-" when nonceless.
func FlowID(nonce []byte) string {
	if len(nonce) == 0 {
		return "-"
	}
	return hex.EncodeToString(nonce)
}

// Wire format limits: one message may not exceed MaxMessageSize on the
// wire, bounding allocation on receipt.
const MaxMessageSize = 4 << 20

// Errors from codec and transport.
var (
	ErrMessageTooLarge = errors.New("rats: message exceeds size limit")
	ErrBadMessage      = errors.New("rats: malformed message")
)

// Encode serializes m to its wire form (excluding the outer length
// frame, which Conn.Write adds).
func Encode(m *Message) []byte {
	return appendMessage(make([]byte, 0, encodedLen(m)), m)
}

// encodedLen is the exact length of m's wire form.
func encodedLen(m *Message) int {
	n := 1 + 8 + 4 + len(m.Nonce) + 4
	for _, c := range m.Claims {
		n += 4 + len(c)
	}
	n += 4 + len(m.Body)
	if m.Trace != nil {
		n += 1 + 4 + traceWireLen
	}
	for _, e := range m.Ext {
		if e.Tag != extTagTrace {
			n += 1 + 4 + len(e.Value)
		}
	}
	return n
}

// appendMessage appends m's wire form to b.
func appendMessage(b []byte, m *Message) []byte {
	b = append(b, byte(m.Type))
	b = binary.BigEndian.AppendUint64(b, m.Session)
	b = appendLV(b, m.Nonce)
	b = binary.BigEndian.AppendUint32(b, uint32(len(m.Claims)))
	for _, c := range m.Claims {
		b = binary.BigEndian.AppendUint32(b, uint32(len(c)))
		b = append(b, c...)
	}
	b = appendLV(b, m.Body)
	if m.Trace != nil {
		b = append(b, extTagTrace)
		b = appendLV(b, m.Trace.wire())
	}
	for _, e := range m.Ext {
		if e.Tag == extTagTrace {
			continue // the canonical Trace field owns this tag
		}
		b = append(b, e.Tag)
		b = appendLV(b, e.Value)
	}
	return b
}

func appendLV(b, v []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(v)))
	return append(b, v...)
}

// Decode parses a wire-form message.
func Decode(data []byte) (*Message, error) {
	d := &lvReader{buf: data}
	tb, err := d.byte()
	if err != nil {
		return nil, err
	}
	m := &Message{Type: MsgType(tb)}
	if m.Type < MsgChallenge || m.Type > MsgSign {
		return nil, fmt.Errorf("%w: type %d", ErrBadMessage, tb)
	}
	if m.Session, err = d.u64(); err != nil {
		return nil, err
	}
	if m.Nonce, err = d.lv(); err != nil {
		return nil, err
	}
	nclaims, err := d.u32()
	if err != nil {
		return nil, err
	}
	if nclaims > 1024 {
		return nil, fmt.Errorf("%w: %d claims", ErrBadMessage, nclaims)
	}
	for i := uint32(0); i < nclaims; i++ {
		c, err := d.lv()
		if err != nil {
			return nil, err
		}
		m.Claims = append(m.Claims, string(c))
	}
	if m.Body, err = d.lv(); err != nil {
		return nil, err
	}
	// Optional tagged trailer fields: [tag u8][u32 len][value]... Known
	// tags decode into their Message fields; unknown tags are preserved
	// in Ext. Pre-trailer frames end exactly at the Body, so old peers'
	// messages decode unchanged, and truncated trailers still error.
	for d.off < len(data) {
		tag, err := d.byte()
		if err != nil {
			return nil, err
		}
		v, err := d.lv()
		if err != nil {
			return nil, err
		}
		switch tag {
		case extTagTrace:
			if m.Trace, err = parseTraceContext(v); err != nil {
				return nil, err
			}
		default:
			m.Ext = append(m.Ext, ExtField{Tag: tag, Value: v})
		}
	}
	return m, nil
}

type lvReader struct {
	buf []byte
	off int
}

func (r *lvReader) byte() (byte, error) {
	if r.off >= len(r.buf) {
		return 0, fmt.Errorf("%w: truncated", ErrBadMessage)
	}
	b := r.buf[r.off]
	r.off++
	return b, nil
}

func (r *lvReader) u32() (uint32, error) {
	if r.off+4 > len(r.buf) {
		return 0, fmt.Errorf("%w: truncated", ErrBadMessage)
	}
	v := binary.BigEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v, nil
}

func (r *lvReader) u64() (uint64, error) {
	if r.off+8 > len(r.buf) {
		return 0, fmt.Errorf("%w: truncated", ErrBadMessage)
	}
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v, nil
}

func (r *lvReader) lv() ([]byte, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if int(n) > MaxMessageSize {
		return nil, ErrMessageTooLarge
	}
	if r.off+int(n) > len(r.buf) {
		return nil, fmt.Errorf("%w: truncated field", ErrBadMessage)
	}
	v := append([]byte(nil), r.buf[r.off:r.off+int(n)]...)
	r.off += int(n)
	return v, nil
}

// Conn frames messages over a byte stream: u32 big-endian length followed
// by the encoded message. Reads and writes are independently locked, so
// one goroutine may read while another writes.
type Conn struct {
	cmu sync.Mutex // serializes whole Call exchanges
	rmu sync.Mutex
	wmu sync.Mutex
	r   *bufio.Reader
	w   io.Writer
	c   io.Closer

	rhdr [4]byte // Read's length frame, under rmu

	tracer *telemetry.FlowTracer // optional: auto-inject trace context
}

// NewConn wraps a stream. If rw implements io.Closer, Close closes it.
func NewConn(rw io.ReadWriter) *Conn {
	c, _ := rw.(io.Closer)
	return &Conn{r: bufio.NewReader(rw), w: rw, c: c}
}

// SetTracer arms automatic trace-context injection: outgoing messages
// carrying a nonce but no explicit context get one derived from the
// nonce's flow (when that flow is sampled). Callers that record their
// own spans stamp contexts explicitly via SetContext, which wins. Set
// before the Conn is shared between goroutines.
func (c *Conn) SetTracer(tr *telemetry.FlowTracer) { c.tracer = tr }

// Write sends one message: its length frame and encoding go out in one
// exact-size buffer and one write, so the peer never wakes on a bare
// length and the stream sees one segment where it can.
func (c *Conn) Write(m *Message) error {
	if c.tracer != nil && m.Trace == nil && len(m.Nonce) > 0 {
		m.SetContext(c.tracer.NewContext(FlowID(m.Nonce)))
	}
	n := encodedLen(m)
	if n > MaxMessageSize {
		return ErrMessageTooLarge
	}
	buf := binary.BigEndian.AppendUint32(make([]byte, 0, 4+n), uint32(n))
	buf = appendMessage(buf, m)
	c.wmu.Lock()
	defer c.wmu.Unlock()
	_, err := c.w.Write(buf)
	return err
}

// Read receives one message.
func (c *Conn) Read() (*Message, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	if _, err := io.ReadFull(c.r, c.rhdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(c.rhdr[:])
	if n > MaxMessageSize {
		return nil, ErrMessageTooLarge
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(c.r, buf); err != nil {
		return nil, err
	}
	return Decode(buf)
}

// Close closes the underlying stream when it supports closing.
func (c *Conn) Close() error {
	if c.c != nil {
		return c.c.Close()
	}
	return nil
}

// Call writes a request and reads one response — the client half of a
// request/response exchange. The protocol has no response correlation
// beyond ordering, so Call serializes the whole exchange: concurrent
// Calls on one Conn (e.g. parallel Copland branches sharing a remote
// place) queue rather than stealing each other's responses.
func (c *Conn) Call(req *Message) (*Message, error) {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	if err := c.Write(req); err != nil {
		return nil, err
	}
	resp, err := c.Read()
	if err != nil {
		return nil, err
	}
	if resp.Type == MsgError {
		return resp, fmt.Errorf("rats: remote error: %s", resp.Body)
	}
	return resp, nil
}

// Handler services one request message, returning the response.
type Handler func(*Message) *Message

// Serve reads requests from conn and writes back h's responses until the
// connection fails (io.EOF on orderly shutdown returns nil).
func Serve(conn *Conn, h Handler) error {
	for {
		req, err := conn.Read()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		resp := h(req)
		if resp == nil {
			resp = &Message{Type: MsgError, Session: req.Session, Body: []byte("no response")}
		}
		if resp.Trace == nil && req.Trace != nil {
			// Echo the requester's context so its next hop (e.g. an RP
			// forwarding evidence to the appraiser) stays in the trace.
			resp.Trace = req.Trace
		}
		if err := conn.Write(resp); err != nil {
			return err
		}
	}
}

// ListenAndServe accepts TCP connections on addr, servicing each with h
// in its own goroutine. It returns the listener so callers can close it
// and the bound address (useful with ":0").
func ListenAndServe(addr string, h Handler) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go serveListener(ln, h)
	return ln, nil
}

// Accept retry backoff: the first retry waits acceptBackoffMin, each
// further consecutive failure doubles it up to acceptBackoffMax.
const (
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffMax = time.Second
)

// serveListener accepts connections until ln is closed. Any other Accept
// error (EMFILE when out of descriptors, ECONNABORTED from a peer that
// gave up) is transient: the loop backs off and retries rather than
// silently stop serving on a listener that stays open.
func serveListener(ln net.Listener, h Handler) {
	var delay time.Duration
	for {
		c, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			delay = min(max(2*delay, acceptBackoffMin), acceptBackoffMax)
			time.Sleep(delay)
			continue
		}
		delay = 0
		go func() {
			defer c.Close()
			_ = Serve(NewConn(c), h)
		}()
	}
}

// dialer bounds the TCP connect in Dial, so an unreachable attester or
// appraiser fails the round instead of waiting out the OS connect timeout.
var dialer = net.Dialer{Timeout: 10 * time.Second}

// Dial connects to a rats TCP endpoint.
func Dial(addr string) (*Conn, error) {
	c, err := dialer.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewConn(c), nil
}

// Pipe returns two in-memory connected Conns, for simulations.
func Pipe() (*Conn, *Conn) {
	a, b := net.Pipe()
	return NewConn(a), NewConn(b)
}
