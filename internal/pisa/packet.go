package pisa

import (
	"fmt"
	"maps"
	"sort"
	"strings"
)

// inlineSlots is how many header-vector slots a packet carries inline;
// programs with more slots keep their vector on the heap.
const inlineSlots = 32

// Packet is a frame travelling through the pipeline: the raw bytes it
// arrived with, the header fields the parser extracted (plus metadata),
// and bookkeeping to re-serialize modified headers on the way out.
//
// Fields live in the header vector of the program that runs the packet:
// one slot per field, fixed when the program is loaded, with a presence
// bit per slot. Get and Set address fields by qualified name ("eth.dst",
// "meta.*"); a name the program has no slot for is kept aside by name.
type Packet struct {
	// Data is the original frame.
	Data []byte

	lay   *layout
	vals  []uint64          // one value per slot of lay; absent slots read zero
	has   []uint64          // presence bits, one per slot
	extra map[string]uint64 // fields lay has no slot for; nil until set

	extracted  []*header  // header types in extraction order
	extBuf     [4]*header // inline backing for extracted (programs parse ≤4 headers)
	payloadOff int        // bit offset where the unparsed payload begins

	inl    [inlineSlots]uint64
	inlHas [1]uint64
}

// NewPacket wraps raw frame bytes arriving on ingressPort.
func NewPacket(data []byte, ingressPort uint64) *Packet {
	return newPacket(baseLayout, data, ingressPort)
}

func newPacket(lay *layout, data []byte, ingressPort uint64) *Packet {
	p := &Packet{Data: data}
	p.init(lay)
	p.set(slotIngressPort, ingressPort)
	p.extracted = p.extBuf[:0]
	return p
}

// init points the packet's empty header vector at lay.
func (p *Packet) init(lay *layout) {
	p.lay = lay
	if n := len(lay.names); n <= inlineSlots {
		p.vals, p.has = p.inl[:n], p.inlHas[:]
	} else {
		p.vals, p.has = make([]uint64, n), make([]uint64, (n+63)/64)
	}
}

func (p *Packet) set(slot int, v uint64) {
	p.vals[slot] = v
	p.has[slot>>6] |= 1 << (slot & 63)
}

func (p *Packet) present(slot int) bool { return p.has[slot>>6]>>(slot&63)&1 != 0 }

// bind moves the packet onto lay, the header vector of the program about
// to run it, carrying every field across by name. Process's own packets
// are born bound; a NewPacket, or one another program ran, pays this once.
func (p *Packet) bind(lay *layout) {
	if p.lay == lay {
		return
	}
	if p.lay == baseLayout && p.extra == nil && len(lay.names) <= inlineSlots {
		// A fresh NewPacket: its fixed slots sit at the same index in
		// every layout, and the rest of the inline vector is still zero.
		p.lay, p.vals = lay, p.inl[:len(lay.names)]
		return
	}
	names := p.fieldNames()
	vals := make([]uint64, len(names))
	for i, n := range names {
		vals[i] = p.Get(n)
	}
	p.extra = nil
	p.inl, p.inlHas = [inlineSlots]uint64{}, [1]uint64{}
	p.init(lay)
	for i, n := range names {
		p.Set(n, vals[i])
	}
	for i, h := range p.extracted {
		p.extracted[i] = lay.header(h.name)
	}
}

// fieldNames lists the names of the packet's present fields, unsorted.
func (p *Packet) fieldNames() []string {
	names := make([]string, 0, len(p.vals)+len(p.extra))
	for s, n := range p.lay.names {
		if p.present(s) {
			names = append(names, n)
		}
	}
	for n := range p.extra {
		names = append(names, n)
	}
	return names
}

// Get returns a field value (absent fields read zero, like P4 metadata).
func (p *Packet) Get(qname string) uint64 {
	if s, ok := p.lay.slots[qname]; ok {
		return p.vals[s]
	}
	return p.extra[qname]
}

// Set assigns a field value.
func (p *Packet) Set(qname string, v uint64) {
	if s, ok := p.lay.slots[qname]; ok {
		p.set(s, v)
		return
	}
	if p.extra == nil {
		p.extra = make(map[string]uint64)
	}
	p.extra[qname] = v
}

// Dropped reports whether the pipeline marked the packet dropped.
func (p *Packet) Dropped() bool { return p.vals[slotDrop] != 0 }

// EgressPort returns the selected output port.
func (p *Packet) EgressPort() uint64 { return p.vals[slotEgressPort] }

// Payload returns the unparsed remainder of the frame. The parser always
// leaves the payload byte-aligned when headers are byte-multiples; for
// odd header widths the payload begins at the next full byte.
func (p *Packet) Payload() []byte {
	byteOff := (p.payloadOff + 7) / 8
	if byteOff >= len(p.Data) {
		return nil
	}
	return p.Data[byteOff:]
}

// Extracted returns the header type names extracted by the parser, in
// order.
func (p *Packet) Extracted() []string {
	if len(p.extracted) == 0 {
		return nil
	}
	names := make([]string, len(p.extracted))
	for i, h := range p.extracted {
		names[i] = h.name
	}
	return names
}

// Clone returns a deep copy, used for mirroring/cloning.
func (p *Packet) Clone() *Packet {
	cp := &Packet{
		Data:       append([]byte(nil), p.Data...),
		extra:      maps.Clone(p.extra),
		payloadOff: p.payloadOff,
	}
	cp.init(p.lay)
	copy(cp.vals, p.vals)
	copy(cp.has, p.has)
	cp.extracted = append(cp.extBuf[:0], p.extracted...)
	return cp
}

// String renders the parsed fields deterministically, for logs and tests.
func (p *Packet) String() string {
	keys := p.fieldNames()
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", k, p.Get(k))
	}
	return b.String()
}

// FlowHash returns a stable non-cryptographic hash over the packet's
// addressing fields, used by evidence samplers (per-flow sampling) and
// load distribution. FNV-1a over the canonical flow fields.
func (p *Packet) FlowHash() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i, s := range p.lay.flow {
		var v uint64
		if s >= 0 {
			v = p.vals[s]
		} else {
			v = p.extra[flowFields[i]]
		}
		for b := 0; b < 8; b++ {
			h ^= v >> (8 * uint(b)) & 0xff
			h *= prime
		}
	}
	return h
}
