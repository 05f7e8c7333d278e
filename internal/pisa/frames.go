package pisa

import (
	"fmt"

	"pera/internal/p4ir"
)

// BuildFrame serializes the named headers of prog, taking field values
// from fields (absent fields are zero), and appends payload. It is the
// inverse of Parse for well-formed inputs and is used by tests, examples
// and the traffic generators.
func BuildFrame(prog *p4ir.Program, headers []string, fields map[string]uint64, payload []byte) ([]byte, error) {
	bits := 0
	for _, hname := range headers {
		hdr, ok := prog.Header(hname)
		if !ok {
			return nil, fmt.Errorf("pisa: unknown header %q", hname)
		}
		bits += hdr.BitWidth()
	}
	w := bitWriter{data: make([]byte, 0, (bits+7)/8+len(payload))}
	for _, hname := range headers {
		hdr, _ := prog.Header(hname)
		for _, f := range hdr.Fields {
			w.write(fields[p4ir.QName(hname, f.Name)], f.Bits)
		}
	}
	return append(w.data, payload...), nil
}

// IPFrame builds an eth+ip+tp frame for the standard program library
// headers, with eth.typ and ip.proto set so the std parser walks all
// three headers (proto 6 = "TCP-like").
func IPFrame(prog *p4ir.Program, src, dst uint64, sport, dport uint64, payload []byte) ([]byte, error) {
	// Values in ipFrameFields order.
	vals := [len(ipFrameFields)]uint64{p4ir.EtherTypeIP, src, dst, 6, 64, sport, dport}
	lay, err := layoutFor(prog)
	if err != nil || lay.ipFrame == nil {
		// A program Load rejects, or one without the three headers.
		fields := make(map[string]uint64, len(vals))
		for i, n := range ipFrameFields {
			fields[n] = vals[i]
		}
		return BuildFrame(prog, ipFrameHeaders, fields, payload)
	}
	bits := 0
	for _, f := range lay.ipFrame {
		bits += f.bits
	}
	w := bitWriter{data: make([]byte, 0, (bits+7)/8+len(payload))}
	for _, f := range lay.ipFrame {
		var v uint64
		if f.val >= 0 {
			v = vals[f.val]
		}
		w.write(v, f.bits)
	}
	return append(w.data, payload...), nil
}
