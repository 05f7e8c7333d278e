package pera

import (
	"strings"
	"sync"
	"testing"

	"pera/internal/auditlog"
	"pera/internal/evidence"
)

// Allocation pins for the instrumented packet path: a warm Receive of a
// chained in-band frame must not allocate more with the stage hook than
// the pinned counts, with nothing attached and with only an audit
// ledger attached (the consumer that records every flow).

// warmChainedSwitch returns a switch on the chained in-band path with a
// warm evidence cache and a frame carrying one signed program obligation.
func warmChainedSwitch(t *testing.T) (*Switch, []byte) {
	t.Helper()
	s := newSwitch(t, "sw1", Config{InBand: true, Composition: evidence.Chained, Cache: evidence.NewCache()})
	pol := &Policy{ID: 1, Nonce: []byte("alloc-pin"), Obls: []Obligation{{
		Claims: []evidence.Detail{evidence.DetailProgram}, SignEvidence: true,
	}}}
	frame := WrapFrame(pol, testFrame(t, s))
	for i := 0; i < 8; i++ {
		if _, err := s.Receive(1, frame); err != nil {
			t.Fatal(err)
		}
	}
	return s, frame
}

func receiveAllocs(t *testing.T, s *Switch, frame []byte) float64 {
	t.Helper()
	return testing.AllocsPerRun(200, func() {
		if _, err := s.Receive(1, frame); err != nil {
			t.Fatal(err)
		}
	})
}

func TestReceiveAllocsBare(t *testing.T) {
	const pin = 16
	s, frame := warmChainedSwitch(t)
	if got := receiveAllocs(t, s, frame); got > pin {
		t.Fatalf("warm chained Receive: %v allocs, pinned at %d", got, pin)
	}
}

// stalledWriter blocks every Write until released, reporting the first
// one: the ledger goroutine's own sealing work would otherwise land in
// the packet path's allocation count.
type stalledWriter struct {
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func (w *stalledWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.entered) })
	<-w.release
	return len(p), nil
}

func TestReceiveAllocsAudit(t *testing.T) {
	const pin = 19
	s, frame := warmChainedSwitch(t)
	sw := &stalledWriter{entered: make(chan struct{}), release: make(chan struct{})}
	w := auditlog.NewWriter(sw, auditlog.Options{Queue: 1 << 16})
	// A record larger than the writer's buffer forces a Write, parking
	// the sealing goroutine before the measurement starts.
	w.Emit(auditlog.Record{Event: auditlog.EventAction, Note: strings.Repeat("x", 70<<10)})
	<-sw.entered
	defer func() {
		close(sw.release)
		w.Close()
	}()
	s.SetAudit(w)
	if got := receiveAllocs(t, s, frame); got > pin {
		t.Fatalf("warm chained Receive with audit: %v allocs, pinned at %d", got, pin)
	}
}
