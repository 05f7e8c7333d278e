package pisa

import (
	"sync"

	"pera/internal/p4ir"
)

// The packet header vector. Like the PHV a PISA compiler lays out, each
// field a program can touch gets a fixed slot when the program is
// loaded: every declared header field, the fixed metadata below, and
// every other name its parser, tables or actions reference. The parser,
// tables, actions and deparser are resolved to slot indices at the same
// time, so per-packet work indexes an array instead of hashing names.

// Fixed metadata slots, at the same index in every layout.
const (
	slotIngressPort = iota
	slotEgressPort
	slotDrop
	slotMirrored
	slotMirrorPort
	numFixedSlots
)

var fixedSlotNames = [numFixedSlots]string{
	p4ir.MetaIngressPort,
	p4ir.MetaEgressPort,
	p4ir.MetaDrop,
	"meta.mirrored",    // see Process: set to clone the frame
	"meta.mirror_port", // the clone's egress port
}

// flowFields are FlowHash's inputs, in hashing order.
var flowFields = [5]string{"ip.src", "ip.dst", "ip.proto", "tp.sport", "tp.dport"}

// layout is one program's header vector and its pipeline resolved
// against it. It is derived once per *p4ir.Program and shared by every
// instance (and packet) of that program.
type layout struct {
	names []string       // slot → qualified name
	slots map[string]int // qualified name → slot

	hdrs    []*header // declaration order
	states  []parseState
	actions map[string]*actionCode
	ingress []*tableCode
	egress  []*tableCode

	flow    [5]int      // slots of flowFields; -1 where the program has none
	ipFrame []frameBits // IPFrame's eth+ip+tp fields; nil without them
}

// header is a header type's fields in extraction order.
type header struct {
	name   string
	fields []slotField
}

type slotField struct {
	slot  int
	bits  int
	qname string
}

// Parser transitions resolve to an index into layout.states or to one
// of the terminal states.
const (
	nextAccept = -1
	nextReject = -2
)

type parseState struct {
	hdr   *header // nil: extracts nothing
	sel   int     // select slot; -1: always take def
	trans []transition
	def   int
}

type transition struct {
	value uint64
	next  int
}

type actionCode struct {
	params []string // declared parameter names; operands index into them
	ops    []opCode
}

type opCode struct {
	kind  p4ir.OpKind
	dst   int    // slot written by set, add and regread
	width uint64 // mask of dst's declared width (all ones for metadata)
	src   operand
	index operand
	reg   string
}

type operand struct {
	kind  p4ir.ValKind
	c     uint64 // ValConst
	slot  int    // ValField
	param int    // ValParam: index into the action's params
}

func (o *operand) eval(pkt *Packet, params []uint64) uint64 {
	switch o.kind {
	case p4ir.ValConst:
		return o.c
	case p4ir.ValField:
		return pkt.vals[o.slot]
	case p4ir.ValParam:
		return params[o.param]
	}
	return 0
}

// boundAction is an action with its parameter values in declared order.
// A nil act is a table miss without a default action: a no-op.
type boundAction struct {
	act    *actionCode
	params []uint64
}

type tableCode struct {
	decl *p4ir.Table
	keys []keyCode
	miss boundAction // the default action
}

type keyCode struct {
	slot int
	kind p4ir.MatchKind
	bits int
}

// frameBits is one IPFrame field: its width and which of IPFrame's
// values it carries (-1: zero).
type frameBits struct {
	bits int
	val  int
}

// IPFrame's values, indexed by frameBits.val.
var ipFrameFields = [...]string{"eth.typ", "ip.src", "ip.dst", "ip.proto", "ip.ttl", "tp.sport", "tp.dport"}

var ipFrameHeaders = []string{"eth", "ip", "tp"}

// baseLayout holds only the fixed slots: the layout of a NewPacket
// before a program parses it.
var baseLayout = func() *layout {
	lay := &layout{slots: make(map[string]int, numFixedSlots)}
	for _, n := range fixedSlotNames {
		lay.slot(n)
	}
	for i := range lay.flow {
		lay.flow[i] = -1
	}
	return lay
}()

// slot returns qname's slot, assigning the next one if it has none.
func (lay *layout) slot(qname string) int {
	if s, ok := lay.slots[qname]; ok {
		return s
	}
	s := len(lay.names)
	lay.names = append(lay.names, qname)
	lay.slots[qname] = s
	return s
}

// header returns the layout's header type called name; one the program
// does not declare comes back fieldless, so it deparses to nothing.
func (lay *layout) header(name string) *header {
	for _, h := range lay.hdrs {
		if h.name == name {
			return h
		}
	}
	return &header{name: name}
}

var (
	layoutsMu sync.Mutex
	layouts   = map[*p4ir.Program]*layout{}
)

const layoutCap = 64

// layoutFor validates prog and returns its cached layout. Programs are
// treated as immutable after construction (nothing in the repo mutates
// a Program once built), so both the validation verdict and the layout
// are safe to reuse for the program's lifetime; several instances
// routinely load the same shared *Program (every forwarding switch in a
// testbed).
func layoutFor(prog *p4ir.Program) (*layout, error) {
	layoutsMu.Lock()
	lay, ok := layouts[prog]
	layoutsMu.Unlock()
	if ok {
		return lay, nil
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	lay = newLayout(prog)
	layoutsMu.Lock()
	if ex, ok := layouts[prog]; ok {
		lay = ex
	} else {
		if len(layouts) >= layoutCap {
			layouts = make(map[*p4ir.Program]*layout, layoutCap)
		}
		layouts[prog] = lay
	}
	layoutsMu.Unlock()
	return lay, nil
}

// newLayout assigns slots and resolves prog's pipeline against them.
// prog must be valid.
func newLayout(prog *p4ir.Program) *layout {
	lay := &layout{
		slots:   make(map[string]int),
		actions: make(map[string]*actionCode, len(prog.Actions)),
	}
	for _, n := range fixedSlotNames {
		lay.slot(n)
	}
	for _, h := range prog.Headers {
		hdr := &header{name: h.Name, fields: make([]slotField, len(h.Fields))}
		for i, f := range h.Fields {
			q := p4ir.QName(h.Name, f.Name)
			hdr.fields[i] = slotField{slot: lay.slot(q), bits: f.Bits, qname: q}
		}
		lay.hdrs = append(lay.hdrs, hdr)
	}

	// Validate guarantees every transition names a declared state.
	stateIdx := make(map[string]int, len(prog.Parser)+2)
	stateIdx[p4ir.StateAccept], stateIdx[p4ir.StateReject] = nextAccept, nextReject
	for i, s := range prog.Parser {
		stateIdx[s.Name] = i
	}
	lay.states = make([]parseState, len(prog.Parser))
	for i, s := range prog.Parser {
		st := &lay.states[i]
		if s.Extract != "" {
			st.hdr = lay.header(s.Extract)
		}
		st.sel = -1
		if s.SelectField != "" {
			st.sel = lay.slot(s.SelectField)
		}
		st.def = stateIdx[s.Default]
		for _, tr := range s.Transitions {
			st.trans = append(st.trans, transition{value: tr.Value, next: stateIdx[tr.Next]})
		}
	}

	for _, a := range prog.Actions {
		lay.actions[a.Name] = lay.resolveAction(a, prog)
	}
	resolveTables := func(decls []*p4ir.Table) []*tableCode {
		out := make([]*tableCode, len(decls))
		for i, t := range decls {
			tc := &tableCode{decl: t, keys: make([]keyCode, len(t.Keys))}
			for k, key := range t.Keys {
				tc.keys[k] = keyCode{slot: lay.slot(key.Field), kind: key.Kind, bits: key.Bits}
			}
			if t.DefaultAction != "" {
				tc.miss = lay.bind(t.DefaultAction, t.DefaultParams)
			}
			out[i] = tc
		}
		return out
	}
	lay.ingress = resolveTables(prog.Ingress)
	lay.egress = resolveTables(prog.Egress)

	for i, f := range flowFields {
		lay.flow[i] = -1
		if s, ok := lay.slots[f]; ok {
			lay.flow[i] = s
		}
	}
	lay.ipFrame = ipFramePlan(prog)
	return lay
}

func (lay *layout) resolveAction(a *p4ir.Action, prog *p4ir.Program) *actionCode {
	ac := &actionCode{params: a.Params, ops: make([]opCode, len(a.Ops))}
	resolve := func(v p4ir.Val) operand {
		o := operand{kind: v.Kind, c: v.Const}
		switch v.Kind {
		case p4ir.ValField:
			o.slot = lay.slot(v.Name)
		case p4ir.ValParam:
			for i, p := range a.Params {
				if p == v.Name {
					o.param = i
					break
				}
			}
		}
		return o
	}
	for i, op := range a.Ops {
		oc := opCode{kind: op.Kind, src: resolve(op.Src), index: resolve(op.Index), reg: op.Reg}
		switch op.Kind {
		case p4ir.OpSet, p4ir.OpAdd, p4ir.OpRegRead:
			oc.dst = lay.slot(op.Dst)
			oc.width = fieldWidth(prog, op.Dst)
		}
		ac.ops[i] = oc
	}
	return ac
}

// bind resolves a (valid) action name and an entry's parameter map to
// the action and its parameter values in declared order.
func (lay *layout) bind(action string, params map[string]uint64) boundAction {
	ac := lay.actions[action]
	b := boundAction{act: ac}
	if len(ac.params) > 0 {
		b.params = make([]uint64, len(ac.params))
		for i, p := range ac.params {
			b.params[i] = params[p]
		}
	}
	return b
}

// fieldWidth is the mask that truncates a value written to qname: the
// declared width of a header field; metadata fields are full 64-bit.
func fieldWidth(prog *p4ir.Program, qname string) uint64 {
	hdrName, fieldName, ok := splitQName(qname)
	if !ok || hdrName == "meta" {
		return ^uint64(0)
	}
	hdr, ok := prog.Header(hdrName)
	if !ok {
		return ^uint64(0)
	}
	f, ok := hdr.Field(fieldName)
	if !ok {
		return ^uint64(0)
	}
	return mask(f.Bits)
}

func splitQName(qname string) (hdr, field string, ok bool) {
	for i := 0; i < len(qname); i++ {
		if qname[i] == '.' {
			return qname[:i], qname[i+1:], true
		}
	}
	return "", "", false
}

// ipFramePlan lays out IPFrame's headers for prog, or returns nil when
// prog does not declare all three.
func ipFramePlan(prog *p4ir.Program) []frameBits {
	var plan []frameBits
	for _, hname := range ipFrameHeaders {
		hdr, ok := prog.Header(hname)
		if !ok {
			return nil
		}
		for _, f := range hdr.Fields {
			fb := frameBits{bits: f.Bits, val: -1}
			q := p4ir.QName(hname, f.Name)
			for i, n := range ipFrameFields {
				if n == q {
					fb.val = i
				}
			}
			plan = append(plan, fb)
		}
	}
	return plan
}
