package main

import "testing"

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: spOp, Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: spSend, Start: 10, End: 60},
		{ID: 3, Parent: 2, Name: spHop, Start: 20, End: 30},
		{ID: 4, Parent: 2, Name: spHop, Start: 40, End: 55},
		{ID: 5, Parent: 4, Name: spSign, Start: 45, End: 50},
		{ID: 6, Parent: 1, Name: spWindow, Start: 70, End: 90},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - 50 - 20, 2: 50 - 10 - 15, 3: 10, 4: 15 - 5, 5: 5, 6: 20}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self = %d, want %d", id, self[id], w)
		}
	}
	var sum int64
	for _, v := range self {
		sum += v
	}
	if sum != 100 {
		t.Errorf("self times sum to %d, want the root's 100", sum)
	}
}

func TestSelfTimeOverlappingAndEscapingChildren(t *testing.T) {
	// Two server-side children overlap each other, and one starts before
	// its parent (clock skew between goroutines): covered time counts
	// once, and only inside the parent.
	spans := []span{
		{ID: 1, Name: spChallenge, Start: 100, End: 200},
		{ID: 2, Parent: 1, Name: spAttest, Start: 90, End: 130},
		{ID: 3, Parent: 1, Name: spAttest, Start: 120, End: 150},
		{ID: 4, Parent: 1, Name: spAttest, Start: 180, End: 180},
	}
	if got := selfTimes(spans)[1]; got != 100-50 {
		t.Errorf("self = %d, want 50", got)
	}
}

func TestLedgerReconciles(t *testing.T) {
	spans := []span{
		{ID: 1, Name: spOp, Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: spSend, Start: 10, End: 60},
		{ID: 3, Parent: 2, Name: spHop, Start: 20, End: 50},
		{ID: 4, Parent: 3, Name: spSign, Start: 30, End: 40},
	}
	l := buildLedger(byName(spans), 1, 110, 105)
	if l.SumNs != 100 {
		t.Fatalf("sum = %v, want 100", l.SumNs)
	}
	if l.SelfNsPerOp["rot"] != 10 || l.SelfNsPerOp["pera"] != 20 || l.SelfNsPerOp["netsim"] != 20 || l.SelfNsPerOp["harness"] != 50 {
		t.Errorf("rows = %v", l.SelfNsPerOp)
	}
	if l.OutsideNs != 10 || l.ResidualNs != 5 {
		t.Errorf("outside = %v, residual = %v; want 10, 5", l.OutsideNs, l.ResidualNs)
	}
	// residual = outside - (traced - e2e)
	if l.ResidualNs != l.OutsideNs-(l.TracedNs-l.E2ENs) {
		t.Errorf("residual identity broken: %+v", l)
	}
}

func TestCursorNesting(t *testing.T) {
	tr := newTracer(8)
	c := tr.cursor()
	c.setOp(7)
	op := c.begin(spOp)
	send := c.begin(spSend)
	if c.top() != send {
		t.Fatalf("top = %d, want %d", c.top(), send)
	}
	c.end()
	c.end()
	var nilCursor *cursor
	nilCursor.begin(spOp) // a nil cursor records nothing and must not panic
	nilCursor.end()
	spans := tr.snapshot()
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	if spans[0].ID != send || spans[0].Parent != op || spans[0].Op != 7 || spans[1].Parent != 0 {
		t.Errorf("spans = %+v", spans)
	}
}
