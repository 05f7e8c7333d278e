package pisa

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"pera/internal/p4ir"
)

// The map-based pipeline the header vector replaced, kept as the
// reference the tests compare against: every field lives in a
// map[string]uint64 under its qualified name, and every parser, table,
// action and deparser step looks fields up by name.

// refPacket is the reference pipeline's packet.
type refPacket struct {
	Data       []byte
	Fields     map[string]uint64
	extracted  []string
	payloadOff int
}

func newRefPacket(data []byte, ingressPort uint64) *refPacket {
	return &refPacket{Data: data, Fields: map[string]uint64{p4ir.MetaIngressPort: ingressPort}}
}

func (p *refPacket) Get(qname string) uint64    { return p.Fields[qname] }
func (p *refPacket) Set(qname string, v uint64) { p.Fields[qname] = v }
func (p *refPacket) Dropped() bool              { return p.Fields[p4ir.MetaDrop] != 0 }
func (p *refPacket) EgressPort() uint64         { return p.Fields[p4ir.MetaEgressPort] }

func (p *refPacket) Payload() []byte {
	byteOff := (p.payloadOff + 7) / 8
	if byteOff >= len(p.Data) {
		return nil
	}
	return p.Data[byteOff:]
}

func (p *refPacket) Extracted() []string { return append([]string(nil), p.extracted...) }

func (p *refPacket) Clone() *refPacket {
	cp := &refPacket{
		Data:       append([]byte(nil), p.Data...),
		Fields:     make(map[string]uint64, len(p.Fields)),
		extracted:  append([]string(nil), p.extracted...),
		payloadOff: p.payloadOff,
	}
	for k, v := range p.Fields {
		cp.Fields[k] = v
	}
	return cp
}

func (p *refPacket) String() string {
	keys := make([]string, 0, len(p.Fields))
	for k := range p.Fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", k, p.Fields[k])
	}
	return b.String()
}

func (p *refPacket) FlowHash() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, f := range []string{"ip.src", "ip.dst", "ip.proto", "tp.sport", "tp.dport"} {
		v := p.Fields[f]
		for i := 0; i < 8; i++ {
			h ^= v >> (8 * uint(i)) & 0xff
			h *= prime
		}
	}
	return h
}

// refPipeline is the reference pipeline's instance: a program with its
// own table entries, registers and counters.
type refPipeline struct {
	prog    *p4ir.Program
	entries map[string][]p4ir.Entry
	regs    map[string][]uint64
	counts  map[string][]uint64
}

func newRefPipeline(prog *p4ir.Program) *refPipeline {
	r := &refPipeline{
		prog:    prog,
		entries: map[string][]p4ir.Entry{},
		regs:    map[string][]uint64{},
		counts:  map[string][]uint64{},
	}
	for _, reg := range prog.Registers {
		r.regs[reg.Name] = make([]uint64, reg.Size)
		r.counts[reg.Name] = make([]uint64, reg.Size)
	}
	return r
}

type refOutput struct {
	Port   uint64
	Packet *refPacket
	Mirror bool
}

func (r *refPipeline) parse(pkt *refPacket) error {
	if len(r.prog.Parser) == 0 {
		return ErrNoParserStart
	}
	br := bitReader{data: pkt.Data}
	state := r.prog.Parser[0]
	for steps := 0; steps < maxParserSteps; steps++ {
		if state.Extract != "" {
			hdr, _ := r.prog.Header(state.Extract)
			for _, f := range hdr.Fields {
				v, err := br.read(f.Bits)
				if err != nil {
					return fmt.Errorf("extracting %s.%s: %w", hdr.Name, f.Name, err)
				}
				pkt.Fields[p4ir.QName(hdr.Name, f.Name)] = v
			}
			pkt.extracted = append(pkt.extracted, hdr.Name)
		}
		next := state.Default
		if state.SelectField != "" {
			v := pkt.Get(state.SelectField)
			for _, tr := range state.Transitions {
				if tr.Value == v {
					next = tr.Next
					break
				}
			}
		}
		switch next {
		case p4ir.StateAccept:
			pkt.payloadOff = br.off
			return nil
		case p4ir.StateReject:
			return ErrParseReject
		}
		ns, ok := r.prog.State(next)
		if !ok {
			return fmt.Errorf("pisa: parser transition to unknown state %q", next)
		}
		state = ns
	}
	return fmt.Errorf("pisa: parser exceeded %d steps", maxParserSteps)
}

func (r *refPipeline) applyTables(tables []*p4ir.Table, pkt *refPacket) error {
	for _, decl := range tables {
		if pkt.Dropped() {
			return nil
		}
		entry, hit := refLookup(decl, r.entries[decl.Name], pkt)
		actName, params := decl.DefaultAction, decl.DefaultParams
		if hit {
			actName, params = entry.Action, entry.Params
		}
		if actName == "" {
			continue
		}
		act, ok := r.prog.Action(actName)
		if !ok {
			return fmt.Errorf("%w: %q", ErrUnknownAction, actName)
		}
		if err := r.execAction(act, params, pkt); err != nil {
			return err
		}
	}
	return nil
}

func (r *refPipeline) execAction(act *p4ir.Action, params map[string]uint64, pkt *refPacket) error {
	eval := func(v p4ir.Val) uint64 {
		switch v.Kind {
		case p4ir.ValConst:
			return v.Const
		case p4ir.ValField:
			return pkt.Get(v.Name)
		case p4ir.ValParam:
			return params[v.Name]
		default:
			return 0
		}
	}
	for _, op := range act.Ops {
		switch op.Kind {
		case p4ir.OpSet:
			pkt.Set(op.Dst, r.maskToWidth(op.Dst, eval(op.Src)))
		case p4ir.OpAdd:
			pkt.Set(op.Dst, r.maskToWidth(op.Dst, pkt.Get(op.Dst)+eval(op.Src)))
		case p4ir.OpForward:
			pkt.Set(p4ir.MetaEgressPort, eval(op.Src))
		case p4ir.OpDrop:
			pkt.Set(p4ir.MetaDrop, 1)
		case p4ir.OpRegWrite:
			if arr, idx := r.regs[op.Reg], eval(op.Index); int(idx) < len(arr) {
				arr[idx] = eval(op.Src)
			}
		case p4ir.OpRegRead:
			var v uint64
			if arr, idx := r.regs[op.Reg], eval(op.Index); int(idx) < len(arr) {
				v = arr[idx]
			}
			pkt.Set(op.Dst, v)
		case p4ir.OpCount:
			if arr, idx := r.counts[op.Reg], eval(op.Index); int(idx) < len(arr) {
				arr[idx]++
			}
		default:
			return fmt.Errorf("pisa: unknown op %v", op.Kind)
		}
	}
	return nil
}

func (r *refPipeline) maskToWidth(qname string, v uint64) uint64 {
	hdrName, fieldName, ok := splitQName(qname)
	if !ok || hdrName == "meta" {
		return v
	}
	hdr, ok := r.prog.Header(hdrName)
	if !ok {
		return v
	}
	f, ok := hdr.Field(fieldName)
	if !ok {
		return v
	}
	return v & mask(f.Bits)
}

func (r *refPipeline) deparse(pkt *refPacket) []byte {
	w := bitWriter{}
	for _, hname := range pkt.extracted {
		hdr, ok := r.prog.Header(hname)
		if !ok {
			continue
		}
		for _, f := range hdr.Fields {
			w.write(pkt.Get(p4ir.QName(hdr.Name, f.Name)), f.Bits)
		}
	}
	return append(w.data, pkt.Payload()...)
}

func (r *refPipeline) process(data []byte, ingressPort uint64) ([]refOutput, error) {
	pkt := newRefPacket(data, ingressPort)
	if err := r.parse(pkt); err != nil {
		if errors.Is(err, ErrParseReject) || errors.Is(err, ErrTruncated) {
			return nil, nil
		}
		return nil, err
	}
	if err := r.applyTables(r.prog.Ingress, pkt); err != nil {
		return nil, err
	}
	if pkt.Dropped() {
		return nil, nil
	}
	if err := r.applyTables(r.prog.Egress, pkt); err != nil {
		return nil, err
	}
	if pkt.Dropped() {
		return nil, nil
	}
	pkt.Data = r.deparse(pkt)
	outs := []refOutput{{Port: pkt.EgressPort(), Packet: pkt}}
	if pkt.Get("meta.mirrored") != 0 {
		cl := pkt.Clone()
		cl.Set(p4ir.MetaEgressPort, pkt.Get("meta.mirror_port"))
		outs = append(outs, refOutput{Port: cl.EgressPort(), Packet: cl, Mirror: true})
	}
	return outs, nil
}

// refBuildFrame is BuildFrame as the bit writer grows it, from nil.
func refBuildFrame(prog *p4ir.Program, headers []string, fields map[string]uint64, payload []byte) ([]byte, error) {
	w := bitWriter{}
	for _, hname := range headers {
		hdr, ok := prog.Header(hname)
		if !ok {
			return nil, fmt.Errorf("pisa: unknown header %q", hname)
		}
		for _, f := range hdr.Fields {
			w.write(fields[p4ir.QName(hname, f.Name)], f.Bits)
		}
	}
	return append(w.data, payload...), nil
}

// lookup binds pkt to the instance's layout and returns the entry match
// selects, for comparison with refLookup.
func (in *Instance) lookup(ts *tableState, pkt *Packet) (p4ir.Entry, bool) {
	pkt.bind(in.lay)
	i := match(ts, pkt)
	if i < 0 {
		return p4ir.Entry{}, false
	}
	return ts.entries[i], true
}
