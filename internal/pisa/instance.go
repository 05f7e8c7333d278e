package pisa

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"pera/internal/p4ir"
	"pera/internal/rot"
)

// Instance is a loaded program together with its runtime state: installed
// table entries, registers and counters. It corresponds to "the dataplane"
// of one switch; a control plane installs entries, the pipeline executes
// packets, and PERA attests its digests.
type Instance struct {
	prog *p4ir.Program
	lay  *layout // the program's header vector and resolved pipeline

	parsedN atomic.Uint64 // packets parsed, for stats

	// tablesDigest caches TablesDigest between table mutations; entry
	// installs are control-plane rare, digest reads are per-attestation.
	tablesDigest atomic.Pointer[rot.Digest]

	mu      sync.RWMutex
	tables  map[string]*tableState
	ingress []*tableState // in application order
	egress  []*tableState
	regs    map[string][]uint64
	counts  map[string][]uint64
}

type tableState struct {
	code    *tableCode
	entries []p4ir.Entry
	bound   []boundAction // entries[i]'s action, resolved at install
}

// Errors from instance operations.
var (
	ErrUnknownTable  = errors.New("pisa: unknown table")
	ErrTableFull     = errors.New("pisa: table full")
	ErrBadEntry      = errors.New("pisa: entry does not fit table")
	ErrUnknownAction = errors.New("pisa: unknown action")
)

// Load validates prog and returns a fresh instance with empty tables and
// zeroed registers.
func Load(prog *p4ir.Program) (*Instance, error) {
	lay, err := layoutFor(prog)
	if err != nil {
		return nil, err
	}
	in := &Instance{
		prog:   prog,
		lay:    lay,
		tables: make(map[string]*tableState, len(lay.ingress)+len(lay.egress)),
		regs:   make(map[string][]uint64, len(prog.Registers)),
		counts: make(map[string][]uint64, len(prog.Registers)),
	}
	states := func(codes []*tableCode) []*tableState {
		out := make([]*tableState, len(codes))
		for i, tc := range codes {
			out[i] = &tableState{code: tc}
			in.tables[tc.decl.Name] = out[i]
		}
		return out
	}
	in.ingress = states(lay.ingress)
	in.egress = states(lay.egress)
	for _, r := range prog.Registers {
		in.regs[r.Name] = make([]uint64, r.Size)
		in.counts[r.Name] = make([]uint64, r.Size)
	}
	return in, nil
}

// Program returns the loaded program.
func (in *Instance) Program() *p4ir.Program { return in.prog }

// InstallEntry adds an entry to a table, validating arity and action.
func (in *Instance) InstallEntry(table string, e p4ir.Entry) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	ts, ok := in.tables[table]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTable, table)
	}
	decl := ts.code.decl
	if len(e.Matches) != len(decl.Keys) {
		return fmt.Errorf("%w: %d matches for %d keys", ErrBadEntry, len(e.Matches), len(decl.Keys))
	}
	if decl.MaxEntries > 0 && len(ts.entries) >= decl.MaxEntries {
		return fmt.Errorf("%w: %q at %d entries", ErrTableFull, table, len(ts.entries))
	}
	if !actionPermitted(decl, e.Action) {
		return fmt.Errorf("%w: %q not permitted in table %q", ErrUnknownAction, e.Action, table)
	}
	if _, ok := in.lay.actions[e.Action]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownAction, e.Action)
	}
	ts.entries = append(ts.entries, e)
	ts.bound = append(ts.bound, in.lay.bind(e.Action, e.Params))
	in.tablesDigest.Store(nil)
	return nil
}

func actionPermitted(t *p4ir.Table, name string) bool {
	if len(t.Actions) == 0 {
		return true
	}
	for _, a := range t.Actions {
		if a == name {
			return true
		}
	}
	return false
}

// ClearTable removes all entries from a table.
func (in *Instance) ClearTable(table string) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	ts, ok := in.tables[table]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTable, table)
	}
	ts.entries, ts.bound = nil, nil
	in.tablesDigest.Store(nil)
	return nil
}

// Entries returns a copy of the entries installed in a table.
func (in *Instance) Entries(table string) ([]p4ir.Entry, error) {
	in.mu.RLock()
	defer in.mu.RUnlock()
	ts, ok := in.tables[table]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTable, table)
	}
	return append([]p4ir.Entry(nil), ts.entries...), nil
}

// match returns the index of the best-matching entry for the current
// packet field values, or -1. Selection: all keys must match; among
// matching entries the one with the highest (priority, total LPM prefix
// length) wins; ties go to the earliest installed. pkt must be bound to
// the table's layout.
func match(ts *tableState, pkt *Packet) int {
	bestIdx := -1
	bestPrio, bestPfx := 0, -1
	for i := range ts.entries {
		e := &ts.entries[i]
		pfx, ok := entryMatches(ts.code.keys, e, pkt)
		if !ok {
			continue
		}
		if bestIdx < 0 || e.Priority > bestPrio || (e.Priority == bestPrio && pfx > bestPfx) {
			bestIdx, bestPrio, bestPfx = i, e.Priority, pfx
		}
	}
	return bestIdx
}

// entryMatches checks e against pkt, returning the total prefix length
// used for LPM tie-breaking.
func entryMatches(keys []keyCode, e *p4ir.Entry, pkt *Packet) (int, bool) {
	pfxTotal := 0
	for i, k := range keys {
		v := pkt.vals[k.slot]
		m := e.Matches[i]
		switch k.kind {
		case p4ir.MatchExact:
			if v != m.Value {
				return 0, false
			}
		case p4ir.MatchLPM:
			bits := k.bits
			if bits == 0 {
				bits = 64
			}
			if m.PrefixLen > bits {
				return 0, false
			}
			shift := uint(bits - m.PrefixLen)
			if m.PrefixLen > 0 && v>>shift != m.Value>>shift {
				return 0, false
			}
			pfxTotal += m.PrefixLen
		case p4ir.MatchTernary:
			if v&m.Mask != m.Value&m.Mask {
				return 0, false
			}
		}
	}
	return pfxTotal, true
}

// RegRead returns register reg[idx] (zero for out-of-range reads, like
// hardware returning an undefined lane — we choose zero for determinism).
func (in *Instance) RegRead(reg string, idx uint64) uint64 {
	in.mu.RLock()
	defer in.mu.RUnlock()
	arr := in.regs[reg]
	if int(idx) >= len(arr) {
		return 0
	}
	return arr[idx]
}

// RegWrite sets register reg[idx]; out-of-range writes are ignored.
func (in *Instance) RegWrite(reg string, idx, v uint64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	arr := in.regs[reg]
	if int(idx) < len(arr) {
		arr[idx] = v
	}
}

// CounterValue returns counter reg[idx].
func (in *Instance) CounterValue(reg string, idx uint64) uint64 {
	in.mu.RLock()
	defer in.mu.RUnlock()
	arr := in.counts[reg]
	if int(idx) >= len(arr) {
		return 0
	}
	return arr[idx]
}

// PacketsParsed reports how many packets this instance has parsed.
func (in *Instance) PacketsParsed() uint64 {
	return in.parsedN.Load()
}

// ProgramDigest is the attestable digest of the loaded code.
func (in *Instance) ProgramDigest() rot.Digest { return in.prog.Digest() }

// TablesDigest is the attestable digest over every table's installed
// entries, independent of installation order.
func (in *Instance) TablesDigest() rot.Digest {
	if d := in.tablesDigest.Load(); d != nil {
		return *d
	}
	in.mu.RLock()
	defer in.mu.RUnlock()
	names := make([]string, 0, len(in.tables))
	for n := range in.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		d := p4ir.EntriesDigest(n, in.tables[n].entries)
		h.Write(d[:])
	}
	var out rot.Digest
	h.Sum(out[:0])
	// Publish while still holding the read lock: invalidation (Store(nil)
	// in InstallEntry/ClearTable) runs under the write lock, so no table
	// mutation can slip between the computation above and this store.
	in.tablesDigest.Store(&out)
	return out
}

// StateDigest is the attestable digest of mutable program state
// (registers and counters) — the Fig. 4 "progstate" detail level.
func (in *Instance) StateDigest() rot.Digest {
	in.mu.RLock()
	defer in.mu.RUnlock()
	names := make([]string, 0, len(in.regs))
	for n := range in.regs {
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.New()
	var buf [8]byte
	for _, n := range names {
		h.Write([]byte(n))
		for _, v := range in.regs[n] {
			binary.BigEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
		for _, v := range in.counts[n] {
			binary.BigEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
	}
	var out rot.Digest
	h.Sum(out[:0])
	return out
}

// TableNames lists the instance's tables sorted by name.
func (in *Instance) TableNames() []string {
	in.mu.RLock()
	defer in.mu.RUnlock()
	names := make([]string, 0, len(in.tables))
	for n := range in.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// DumpTables renders installed entries for operator inspection.
func (in *Instance) DumpTables() string {
	in.mu.RLock()
	defer in.mu.RUnlock()
	var b strings.Builder
	names := make([]string, 0, len(in.tables))
	for n := range in.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ts := in.tables[n]
		fmt.Fprintf(&b, "table %s (%d entries)\n", n, len(ts.entries))
		for _, e := range ts.entries {
			fmt.Fprintf(&b, "  prio=%d %v -> %s%v\n", e.Priority, e.Matches, e.Action, e.Params)
		}
	}
	return b.String()
}
