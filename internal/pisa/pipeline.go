package pisa

import (
	"errors"
	"fmt"

	"pera/internal/p4ir"
)

// Pipeline execution: parse → ingress tables → egress tables → deparse.
//
// The stages mirror the paper's Fig. 3 switch diagram. Evidence-handling
// stages (Sign/Verify, Create/Inspect/Compose) are layered on top by
// internal/pera; this file is the plain PISA forwarding substrate those
// stages extend.

// Errors from pipeline execution.
var (
	ErrParseReject   = errors.New("pisa: parser rejected packet")
	ErrNoParserStart = errors.New("pisa: parser has no start state")
)

// maxParserSteps bounds parser state transitions per packet, so cyclic
// parser graphs (legal to declare, ill-advised to run) terminate.
const maxParserSteps = 64

// Output is one frame emitted by the pipeline.
type Output struct {
	Port   uint64
	Packet *Packet
	Mirror bool // true if this output came from a mirror/clone
}

// Parse runs the parser state machine over pkt.Data, populating the
// packet's fields. The first declared state is the start state.
func (in *Instance) Parse(pkt *Packet) error {
	lay := in.lay
	if len(lay.states) == 0 {
		return ErrNoParserStart
	}
	pkt.bind(lay)
	r := bitReader{data: pkt.Data}
	st := &lay.states[0]
	for steps := 0; steps < maxParserSteps; steps++ {
		if h := st.hdr; h != nil {
			for _, f := range h.fields {
				v, err := r.read(f.bits)
				if err != nil {
					return fmt.Errorf("extracting %s: %w", f.qname, err)
				}
				pkt.set(f.slot, v)
			}
			pkt.extracted = append(pkt.extracted, h)
		}
		next := st.def
		if st.sel >= 0 {
			v := pkt.vals[st.sel]
			for _, tr := range st.trans {
				if tr.value == v {
					next = tr.next
					break
				}
			}
		}
		switch next {
		case nextAccept:
			pkt.payloadOff = r.off
			in.parsedN.Add(1)
			return nil
		case nextReject:
			return ErrParseReject
		}
		st = &lay.states[next]
	}
	return fmt.Errorf("pisa: parser exceeded %d steps", maxParserSteps)
}

// applyTables runs a pipeline of tables in order over a packet bound to
// the instance's layout. Processing stops early if the packet is dropped.
func (in *Instance) applyTables(tables []*tableState, pkt *Packet) error {
	for _, ts := range tables {
		if pkt.Dropped() {
			return nil
		}
		in.mu.RLock()
		act := ts.code.miss
		if i := match(ts, pkt); i >= 0 {
			act = ts.bound[i]
		}
		in.mu.RUnlock()
		if act.act == nil {
			continue // no default: table miss is a no-op
		}
		if err := in.execAction(act, pkt); err != nil {
			return err
		}
	}
	return nil
}

// execAction runs an action's operations against the packet.
func (in *Instance) execAction(b boundAction, pkt *Packet) error {
	params := b.params
	for i := range b.act.ops {
		op := &b.act.ops[i]
		switch op.kind {
		case p4ir.OpSet:
			pkt.set(op.dst, op.src.eval(pkt, params)&op.width)
		case p4ir.OpAdd:
			pkt.set(op.dst, (pkt.vals[op.dst]+op.src.eval(pkt, params))&op.width)
		case p4ir.OpForward:
			pkt.set(slotEgressPort, op.src.eval(pkt, params))
		case p4ir.OpDrop:
			pkt.set(slotDrop, 1)
		case p4ir.OpRegWrite:
			in.RegWrite(op.reg, op.index.eval(pkt, params), op.src.eval(pkt, params))
		case p4ir.OpRegRead:
			pkt.set(op.dst, in.RegRead(op.reg, op.index.eval(pkt, params)))
		case p4ir.OpCount:
			in.count(op.reg, op.index.eval(pkt, params))
		default:
			return fmt.Errorf("pisa: unknown op %v", op.kind)
		}
	}
	return nil
}

func (in *Instance) count(reg string, idx uint64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	arr := in.counts[reg]
	if int(idx) < len(arr) {
		arr[idx]++
	}
}

// Deparse re-serializes the packet: extracted headers (with any field
// modifications) followed by the original payload.
func (in *Instance) Deparse(pkt *Packet) []byte {
	pkt.bind(in.lay)
	// Pre-size for headers + payload so the serialization is one exact
	// allocation: headers re-occupy their parsed width (payloadOff bits).
	payload := pkt.Payload()
	w := bitWriter{data: make([]byte, 0, (pkt.payloadOff+7)/8+len(payload))}
	for _, h := range pkt.extracted {
		for _, f := range h.fields {
			w.write(pkt.vals[f.slot], f.bits)
		}
	}
	return append(w.data, payload...)
}

// Process runs the full pipeline over raw frame bytes arriving on
// ingressPort and returns the emitted outputs (possibly several, when the
// program mirrors). A parse reject or a drop yields no outputs and no
// error; substrate errors (unknown actions, etc.) are returned.
func (in *Instance) Process(data []byte, ingressPort uint64) ([]Output, error) {
	pkt := newPacket(in.lay, data, ingressPort)
	if err := in.Parse(pkt); err != nil {
		if errors.Is(err, ErrParseReject) || errors.Is(err, ErrTruncated) {
			return nil, nil
		}
		return nil, err
	}
	if err := in.applyTables(in.ingress, pkt); err != nil {
		return nil, err
	}
	if pkt.Dropped() {
		return nil, nil
	}
	if err := in.applyTables(in.egress, pkt); err != nil {
		return nil, err
	}
	if pkt.Dropped() {
		return nil, nil
	}
	pkt.Data = in.Deparse(pkt)
	outs := []Output{{Port: pkt.EgressPort(), Packet: pkt}}
	// Mirroring convention: programs set meta.mirrored=1 and
	// meta.mirror_port to clone the frame (see p4ir.NewRogueForwarding).
	if pkt.vals[slotMirrored] != 0 {
		cl := pkt.Clone()
		cl.set(slotEgressPort, pkt.vals[slotMirrorPort])
		outs = append(outs, Output{Port: cl.EgressPort(), Packet: cl, Mirror: true})
	}
	return outs, nil
}
