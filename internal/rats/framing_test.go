package rats

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"sync"
	"syscall"
	"testing"
	"time"
)

// refEncode is the codec's wire form as first written: every field
// appended to a slice grown from nil. Encode must match it byte for byte.
func refEncode(m *Message) []byte {
	var b []byte
	b = append(b, byte(m.Type))
	b = binary.BigEndian.AppendUint64(b, m.Session)
	b = appendLV(b, m.Nonce)
	b = binary.BigEndian.AppendUint32(b, uint32(len(m.Claims)))
	for _, c := range m.Claims {
		b = appendLV(b, []byte(c))
	}
	b = appendLV(b, m.Body)
	if m.Trace != nil {
		b = append(b, extTagTrace)
		b = appendLV(b, m.Trace.wire())
	}
	for _, e := range m.Ext {
		if e.Tag == extTagTrace {
			continue
		}
		b = append(b, e.Tag)
		b = appendLV(b, e.Value)
	}
	return b
}

// TestFuzzDecodeSeedsRoundTrip: every decodable FuzzDecode seed
// re-encodes to exactly its own bytes, into an exact-size buffer.
func TestFuzzDecodeSeedsRoundTrip(t *testing.T) {
	decoded := 0
	for _, seed := range fuzzDecodeSeeds() {
		m, err := Decode(seed)
		if err != nil {
			continue
		}
		decoded++
		if enc := Encode(m); !bytes.Equal(enc, seed) || len(enc) != cap(enc) {
			t.Fatalf("seed %x re-encoded as %x (cap %d)", seed, enc, cap(enc))
		}
	}
	if decoded != 2 {
		t.Fatalf("%d seeds decode, want 2", decoded)
	}
}

// recordingRW records each Write call separately.
type recordingRW struct {
	io.Reader
	writes [][]byte
}

func (r *recordingRW) Write(p []byte) (int, error) {
	r.writes = append(r.writes, append([]byte(nil), p...))
	return len(p), nil
}

// TestWriteOneCallPerMessage: Conn.Write hands the stream the length
// frame and the encoding in a single Write call.
func TestWriteOneCallPerMessage(t *testing.T) {
	rw := &recordingRW{Reader: bytes.NewReader(nil)}
	c := NewConn(rw)
	traced := sampleMsg()
	traced.Trace = &TraceContext{TraceID: "00112233445566778899aabbccddeeff", SpanID: "0123456789abcdef", Sampled: true}
	msgs := []*Message{sampleMsg(), traced, {Type: MsgError}}
	for i, m := range msgs {
		if err := c.Write(m); err != nil {
			t.Fatal(err)
		}
		if len(rw.writes) != i+1 {
			t.Fatalf("message %d took %d writes", i, len(rw.writes)-i)
		}
		body := refEncode(m)
		want := append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
		if got := rw.writes[i]; !bytes.Equal(got, want) {
			t.Fatalf("message %d framed as %x, want %x", i, got, want)
		}
	}
	// The frames read back as the messages written.
	back := NewConn(&recordingRW{Reader: bytes.NewReader(bytes.Join(rw.writes, nil))})
	for i, m := range msgs {
		got, err := back.Read()
		if err != nil || !msgEqual(got, m) || !traceEqual(got.Trace, m.Trace) {
			t.Fatalf("message %d read back as %+v, %v", i, got, err)
		}
	}
}

// flakyListener fails its first Accept with a transient error, then
// yields conn, then blocks until closed.
type flakyListener struct {
	mu     sync.Mutex
	calls  int
	conn   net.Conn
	closed chan struct{}
}

func (l *flakyListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	l.calls++
	call := l.calls
	l.mu.Unlock()
	switch call {
	case 1:
		return nil, &net.OpError{Op: "accept", Net: "tcp", Err: syscall.EMFILE}
	case 2:
		return l.conn, nil
	}
	<-l.closed
	return nil, net.ErrClosed
}

func (l *flakyListener) Close() error   { close(l.closed); return nil }
func (l *flakyListener) Addr() net.Addr { return &net.TCPAddr{} }

// TestAcceptSurvivesTransientError: an Accept failure other than a
// closed listener (here EMFILE) does not stop serving; the connection
// accepted next is served, and closing the listener ends the loop.
func TestAcceptSurvivesTransientError(t *testing.T) {
	client, server := net.Pipe()
	ln := &flakyListener{conn: server, closed: make(chan struct{})}
	done := make(chan struct{})
	go func() {
		serveListener(ln, func(m *Message) *Message {
			return &Message{Type: MsgEvidence, Session: m.Session, Body: []byte("ok")}
		})
		close(done)
	}()
	conn := NewConn(client)
	defer conn.Close()
	resp, err := conn.Call(sampleMsg())
	if err != nil || string(resp.Body) != "ok" || resp.Session != 42 {
		t.Fatalf("call after a failed Accept: %+v, %v", resp, err)
	}
	ln.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("accept loop still running after the listener closed")
	}
}
