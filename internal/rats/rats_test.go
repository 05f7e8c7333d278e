package rats

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func sampleMsg() *Message {
	return &Message{
		Type:    MsgChallenge,
		Session: 42,
		Nonce:   []byte("nonce-bytes"),
		Claims:  []string{"program", "tables"},
		Body:    []byte("body"),
	}
}

func msgEqual(a, b *Message) bool {
	if a.Type != b.Type || a.Session != b.Session ||
		!bytes.Equal(a.Nonce, b.Nonce) || !bytes.Equal(a.Body, b.Body) ||
		len(a.Claims) != len(b.Claims) {
		return false
	}
	for i := range a.Claims {
		if a.Claims[i] != b.Claims[i] {
			return false
		}
	}
	return true
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	msgs := []*Message{
		sampleMsg(),
		{Type: MsgEvidence, Session: 1},
		{Type: MsgResult, Body: []byte{}},
		{Type: MsgRetrieve, Nonce: []byte("n")},
		{Type: MsgError, Body: []byte("reason")},
		{Type: MsgAppraise, Claims: []string{""}},
	}
	for i, m := range msgs {
		got, err := Decode(Encode(m))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !msgEqual(m, got) {
			t.Fatalf("case %d: %+v != %+v", i, m, got)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{0},                         // invalid type 0
		{99},                        // invalid type 99
		{1},                         // truncated session
		{1, 0, 0, 0, 0, 0, 0, 0, 0}, // truncated nonce length
		{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9, 1}, // nonce length beyond data
		append(Encode(sampleMsg()), 0xFF),          // trailing byte
	}
	for i, data := range cases {
		if _, err := Decode(data); err == nil {
			t.Errorf("case %d decoded", i)
		}
	}
	// Excessive claim count.
	bad := []byte{1}
	bad = append(bad, make([]byte, 8)...)     // session
	bad = append(bad, 0, 0, 0, 0)             // empty nonce
	bad = append(bad, 0xFF, 0xFF, 0xFF, 0xFF) // huge claim count
	if _, err := Decode(bad); err == nil {
		t.Error("huge claim count decoded")
	}
}

func TestMsgTypeString(t *testing.T) {
	if MsgChallenge.String() != "challenge" || !strings.Contains(MsgType(0).String(), "0") {
		t.Fatal("msgtype strings")
	}
}

func TestPipeRoundTrip(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		m, err := b.Read()
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		m.Type = MsgResult
		if err := b.Write(m); err != nil {
			t.Errorf("write: %v", err)
		}
	}()
	resp, err := a.Call(sampleMsg())
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != MsgResult || resp.Session != 42 {
		t.Fatalf("resp: %+v", resp)
	}
	wg.Wait()
}

func TestCallSurfacesRemoteError(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		req, _ := b.Read()
		b.Write(&Message{Type: MsgError, Session: req.Session, Body: []byte("denied")})
	}()
	resp, err := a.Call(sampleMsg())
	if err == nil || !strings.Contains(err.Error(), "denied") {
		t.Fatalf("err: %v", err)
	}
	if resp == nil || resp.Type != MsgError {
		t.Fatalf("resp: %+v", resp)
	}
}

func TestServeEchoesUntilEOF(t *testing.T) {
	a, b := Pipe()
	done := make(chan error, 1)
	go func() {
		done <- Serve(b, func(m *Message) *Message {
			return &Message{Type: MsgResult, Session: m.Session}
		})
	}()
	for i := uint64(1); i <= 3; i++ {
		resp, err := a.Call(&Message{Type: MsgChallenge, Session: i})
		if err != nil || resp.Session != i {
			t.Fatalf("call %d: %+v %v", i, resp, err)
		}
	}
	a.Close()
	if err := <-done; err != nil && !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("serve exit: %v", err)
	}
	b.Close()
}

func TestServeNilResponseBecomesError(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	go Serve(b, func(m *Message) *Message { return nil })
	_, err := a.Call(sampleMsg())
	if err == nil {
		t.Fatal("nil handler response not surfaced")
	}
}

func TestTCPTransport(t *testing.T) {
	ln, err := ListenAndServe("127.0.0.1:0", func(m *Message) *Message {
		return &Message{Type: MsgResult, Session: m.Session, Body: m.Body}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	resp, err := conn.Call(&Message{Type: MsgAppraise, Session: 7, Body: []byte("ev")})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Session != 7 || string(resp.Body) != "ev" {
		t.Fatalf("resp: %+v", resp)
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

// TestDialTimeout: Dial bounds its connect, so an unreachable peer fails
// the round instead of hanging on the OS connect timeout.
func TestDialTimeout(t *testing.T) {
	if dialer.Timeout <= 0 {
		t.Fatalf("Dial has no connect timeout (dialer.Timeout = %v)", dialer.Timeout)
	}
}

func TestWriteTooLarge(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	big := &Message{Type: MsgEvidence, Body: make([]byte, MaxMessageSize+1)}
	if err := a.Write(big); !errors.Is(err, ErrMessageTooLarge) {
		t.Fatalf("oversize write: %v", err)
	}
}

func TestConnCloseWithoutCloser(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// Framed write lands in the buffer and reads back.
	if err := c.Write(sampleMsg()); err != nil {
		t.Fatal(err)
	}
	got, err := NewConn(&buf).Read()
	if err != nil || got.Type != MsgChallenge {
		t.Fatalf("read back: %+v %v", got, err)
	}
}

// Property: codec round-trips arbitrary messages.
func TestPropertyCodecRoundTrip(t *testing.T) {
	f := func(typ uint8, session uint64, nonce, body []byte, claims []string) bool {
		m := &Message{
			Type:    MsgType(typ%6) + 1,
			Session: session,
			Nonce:   nonce,
			Claims:  claims,
			Body:    body,
		}
		if len(claims) > 1024 {
			return true
		}
		got, err := Decode(Encode(m))
		return err == nil && msgEqual(m, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
