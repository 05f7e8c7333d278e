package pisa

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"pera/internal/p4ir"
)

// newRewriteProgram is a forwarder whose parser rejects and whose one
// table rewrites header fields (set and add, truncated to their widths),
// moves values through metadata and registers, and keys on metadata and
// an LPM prefix: the operations the library programs leave unused.
func newRewriteProgram() *p4ir.Program {
	p := p4ir.NewForwarding("rewrite")
	p.Parser[1].Transitions = append(p.Parser[1].Transitions, p4ir.Transition{Value: 0xff, Next: p4ir.StateReject})
	p.Registers = []*p4ir.Register{{Name: "r", Size: 8}}
	p.Actions = append(p.Actions, &p4ir.Action{
		Name:   "rewrite",
		Params: []string{"v", "port"},
		Ops: []p4ir.Op{
			{Kind: p4ir.OpSet, Dst: "ip.ttl", Src: p4ir.P("v")},
			{Kind: p4ir.OpAdd, Dst: "tp.dport", Src: p4ir.C(0xffffffff)},
			{Kind: p4ir.OpSet, Dst: "meta.scratch", Src: p4ir.Fld("ip.src")},
			{Kind: p4ir.OpRegWrite, Reg: "r", Index: p4ir.Fld("ip.dst"), Src: p4ir.Fld("meta.scratch")},
			{Kind: p4ir.OpRegRead, Dst: "meta.last", Reg: "r", Index: p4ir.Fld("ip.src")},
			{Kind: p4ir.OpAdd, Dst: "eth.typ", Src: p4ir.Fld("meta.last")},
			{Kind: p4ir.OpCount, Reg: "r", Index: p4ir.P("v")},
			{Kind: p4ir.OpForward, Src: p4ir.P("port")},
		},
	})
	p.Ingress = append([]*p4ir.Table{{
		Name: "rewrite_tbl",
		Keys: []p4ir.Key{
			{Field: p4ir.MetaIngressPort, Kind: p4ir.MatchExact},
			{Field: "ip.src", Kind: p4ir.MatchLPM, Bits: 32},
		},
		Actions:       []string{"rewrite", "nop"},
		DefaultAction: "rewrite",
		DefaultParams: map[string]uint64{"v": 300, "port": 3},
		MaxEntries:    64,
	}}, p.Ingress...)
	return p
}

// fuzzPrograms is every program in p4ir's library plus the rewrite
// program.
func fuzzPrograms() []*p4ir.Program {
	return []*p4ir.Program{
		p4ir.NewForwarding("fwd"), p4ir.NewFirewall("fw"), p4ir.NewACL("acl"),
		p4ir.NewMonitor("mon"), p4ir.NewRogueForwarding("rogue", 99), newRewriteProgram(),
	}
}

// pipelinePair is one program loaded into the header-vector pipeline and
// the map-based reference, with the same table entries.
type pipelinePair struct {
	in  *Instance
	ref *refPipeline
}

// loadPair loads prog into both pipelines and installs the same seeded
// entries in each table, over small value ranges so frames hit them.
func loadPair(tb testing.TB, prog *p4ir.Program, seed int64) pipelinePair {
	tb.Helper()
	in, err := Load(prog)
	if err != nil {
		tb.Fatal(err)
	}
	ref := newRefPipeline(prog)
	rng := rand.New(rand.NewSource(seed))
	for _, t := range append(append([]*p4ir.Table(nil), prog.Ingress...), prog.Egress...) {
		for n := 0; n < 6; n++ {
			e := p4ir.Entry{Priority: rng.Intn(3), Action: t.Actions[rng.Intn(len(t.Actions))]}
			for _, k := range t.Keys {
				m := p4ir.KeyMatch{Value: uint64(rng.Intn(8))}
				switch k.Kind {
				case p4ir.MatchLPM:
					m.PrefixLen = 29 + rng.Intn(4)
				case p4ir.MatchTernary:
					m.Mask = []uint64{0, 7, ^uint64(0)}[rng.Intn(3)]
				}
				e.Matches = append(e.Matches, m)
			}
			act, _ := prog.Action(e.Action)
			if len(act.Params) > 0 {
				e.Params = map[string]uint64{}
				for _, p := range act.Params {
					e.Params[p] = uint64(rng.Intn(12))
				}
			}
			if err := in.InstallEntry(t.Name, e); err != nil {
				tb.Fatal(err)
			}
			ref.entries[t.Name] = append(ref.entries[t.Name], e)
		}
	}
	return pipelinePair{in: in, ref: ref}
}

// samePacket fails tb unless pkt reads exactly like the reference packet.
func samePacket(tb testing.TB, what string, pkt *Packet, want *refPacket) {
	tb.Helper()
	if !bytes.Equal(pkt.Data, want.Data) {
		tb.Fatalf("%s: bytes %x, reference %x", what, pkt.Data, want.Data)
	}
	if got, w := pkt.String(), want.String(); got != w {
		tb.Fatalf("%s: fields %q, reference %q", what, got, w)
	}
	if got, w := pkt.Extracted(), want.Extracted(); !reflect.DeepEqual(got, w) {
		tb.Fatalf("%s: extracted %v, reference %v", what, got, w)
	}
	for _, name := range append([]string{"meta.unknown"}, pkt.lay.names...) {
		if got, w := pkt.Get(name), want.Get(name); got != w {
			tb.Fatalf("%s: Get(%q) = %d, reference %d", what, name, got, w)
		}
	}
	for name, v := range want.Fields {
		if got := pkt.Get(name); got != v {
			tb.Fatalf("%s: Get(%q) = %d, reference %d", what, name, got, v)
		}
	}
	if pkt.Dropped() != want.Dropped() || pkt.EgressPort() != want.EgressPort() ||
		pkt.FlowHash() != want.FlowHash() || !bytes.Equal(pkt.Payload(), want.Payload()) {
		tb.Fatalf("%s: packet %s disagrees with reference %s", what, pkt, want)
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkFrame runs frame through both pipelines, by Process and by
// NewPacket+Parse+Deparse, and fails tb on any difference.
func checkFrame(tb testing.TB, p pipelinePair, frame []byte, port uint64) {
	tb.Helper()
	name := p.in.Program().Name
	outs, err := p.in.Process(append([]byte(nil), frame...), port)
	want, wantErr := p.ref.process(append([]byte(nil), frame...), port)
	if errText(err) != errText(wantErr) || len(outs) != len(want) {
		tb.Fatalf("%s: %d outputs (err %v), reference %d (err %v)", name, len(outs), err, len(want), wantErr)
	}
	for i, o := range outs {
		w := want[i]
		if o.Port != w.Port || o.Mirror != w.Mirror {
			tb.Fatalf("%s: output %d port %d mirror %v, reference %d %v", name, i, o.Port, o.Mirror, w.Port, w.Mirror)
		}
		samePacket(tb, name, o.Packet, w.Packet)
	}
	if !reflect.DeepEqual(p.in.regs, p.ref.regs) || !reflect.DeepEqual(p.in.counts, p.ref.counts) {
		tb.Fatalf("%s: register state diverged from the reference", name)
	}

	pkt, rp := NewPacket(frame, port), newRefPacket(frame, port)
	err, wantErr = p.in.Parse(pkt), p.ref.parse(rp)
	if errText(err) != errText(wantErr) {
		tb.Fatalf("%s: Parse error %v, reference %v", name, err, wantErr)
	}
	samePacket(tb, name+" parse", pkt, rp)
	if err == nil {
		if got, w := p.in.Deparse(pkt), p.ref.deparse(rp); !bytes.Equal(got, w) {
			tb.Fatalf("%s: Deparse %x, reference %x", name, got, w)
		}
	}
}

// FuzzProcess holds the header-vector pipeline to the map-based
// reference: random frames, IP frames over small address ranges (so
// seeded entries hit) and their truncations go through every library
// program; outputs, ports, bytes, drops, extracted headers, rendered
// fields, Get values and register state must all agree.
func FuzzProcess(f *testing.F) {
	f.Add([]byte("payload"), uint8(7), uint8(2), uint16(80), uint8(1), uint16(20))
	f.Add([]byte{}, uint8(1), uint8(3), uint16(22), uint8(0), uint16(0))
	f.Add([]byte{0xff, 0xff, 0x08, 0x00}, uint8(66), uint8(10), uint16(443), uint8(5), uint16(33))
	var pairs []pipelinePair
	for i, prog := range fuzzPrograms() {
		pairs = append(pairs, loadPair(f, prog, int64(i)+1))
	}
	f.Fuzz(func(t *testing.T, raw []byte, src, dst uint8, dport uint16, port uint8, cut uint16) {
		for _, p := range pairs {
			prog := p.in.Program()
			frame, err := IPFrame(prog, uint64(src%8), uint64(dst%8), uint64(port), uint64(dport), raw)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := refBuildFrame(prog, []string{"eth", "ip", "tp"}, map[string]uint64{
				"eth.typ": p4ir.EtherTypeIP, "ip.src": uint64(src % 8), "ip.dst": uint64(dst % 8),
				"ip.proto": 6, "ip.ttl": 64, "tp.sport": uint64(port), "tp.dport": uint64(dport),
			}, raw)
			if !bytes.Equal(frame, want) {
				t.Fatalf("IPFrame %x, reference %x", frame, want)
			}
			checkFrame(t, p, frame, uint64(port%4))
			checkFrame(t, p, frame[:int(cut)%(len(frame)+1)], uint64(port%4))
			checkFrame(t, p, raw, uint64(port))
		}
	})
}

// TestPacketRebind moves packets between header vectors: a field set by
// name before any program parses it, and a packet one program parsed
// and another deparses, read the same as under the reference. The
// second program declares ip's fields in reverse order, no tp header
// and a metadata key where the first had tp.sport, so its slots differ,
// one extracted header is unknown to it and one slot starts absent.
func TestPacketRebind(t *testing.T) {
	rw := loadPair(t, newRewriteProgram(), 1)
	short := p4ir.NewForwarding("short")
	short.Headers = short.Headers[:2]
	ip := short.Headers[1].Fields
	for i, j := 0, len(ip)-1; i < j; i, j = i+1, j-1 {
		ip[i], ip[j] = ip[j], ip[i]
	}
	short.Parser = short.Parser[:2]
	short.Parser[1].Transitions = nil
	short.Ingress[0].Keys = append(short.Ingress[0].Keys, p4ir.Key{Field: "meta.tag", Kind: p4ir.MatchExact})
	fwd := loadPair(t, short, 1)
	frame, _ := IPFrame(rw.in.Program(), 1, 2, 3, 4, []byte("x"))

	pkt, rp := NewPacket(frame, 2), newRefPacket(frame, 2)
	pkt.Set("meta.scratch", 5)
	pkt.Set("meta.elsewhere", 6)
	rp.Set("meta.scratch", 5)
	rp.Set("meta.elsewhere", 6)
	if err := rw.in.Parse(pkt); err != nil {
		t.Fatal(err)
	}
	if err := rw.ref.parse(rp); err != nil {
		t.Fatal(err)
	}
	samePacket(t, "rebound", pkt, rp)
	pkt.Set("ip.ttl", 0x1ff) // Set does not truncate; Deparse writes the low bits
	rp.Set("ip.ttl", 0x1ff)
	if got, want := fwd.in.Deparse(pkt), fwd.ref.deparse(rp); !bytes.Equal(got, want) {
		t.Fatalf("deparse under another program: %x, reference %x", got, want)
	}
	samePacket(t, "after deparse", pkt, rp)
	if cl := pkt.Clone(); cl.String() != rp.Clone().String() {
		t.Fatalf("clone %s", cl)
	}
}

// TestProcessAllocs pins a warm Process: one Packet (its header vector
// inline), the deparsed frame and the output slice for a forwarded
// packet; the Packet alone for a dropped one. IPFrame builds one buffer.
func TestProcessAllocs(t *testing.T) {
	for _, c := range []struct {
		name string
		dst  uint64
		want float64
	}{{"forward", 10, 3}, {"drop", 99, 1}} {
		in := loadFwd(t)
		frame, _ := IPFrame(in.Program(), 7, c.dst, 1234, 80, make([]byte, 1400))
		in.Process(frame, 1)
		if got := testing.AllocsPerRun(200, func() { _, _ = in.Process(frame, 1) }); got != c.want {
			t.Errorf("%s: Process allocates %v times, want %v", c.name, got, c.want)
		}
	}
	prog := p4ir.NewForwarding("fwd_v1.p4")
	IPFrame(prog, 1, 2, 3, 4, nil)
	if got := testing.AllocsPerRun(200, func() { _, _ = IPFrame(prog, 1, 2, 3, 4, []byte("payload")) }); got != 1 {
		t.Errorf("IPFrame allocates %v times, want 1", got)
	}
}
