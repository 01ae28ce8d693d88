package enum

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/compile"
	"repro/internal/fsm"
	"repro/internal/stateset"
)

// This file is the state layer of the explicit-state engine: the packed
// representation every state lives in, and the key step that computes
// successors on it.
//
// Figure 2 only ever asks of a cache's data whether it is absent, the
// latest value or an older one — the three-value class of Definition 4
// that Canonicalize renames versions to. So one cell per cache holds
// everything a step reads or writes: the state index shifted left by two,
// plus the data class in the low two bits. A cell is one byte while the
// protocol has at most maxByteStates states and two bytes (little endian)
// above that. A representative is the n cells of a configuration followed
// by one byte for the memory's class, kc.w = n·c+1 bytes; it is also the
// strict-mode key, and counting equivalence (Definition 5) sorts its cells
// for the key. Every frontier state, candidate and visited-set entry is
// such a byte string.
//
// Each rule of the protocol becomes a cell map for the non-originator
// caches and a class table for the originator and the memory (see
// newKeyCodec), so one pass over the parent writes the successor; the
// result equals Canonicalize ∘ fsm.Step on the decoded configuration,
// which the oracle test checks on random protocols and the library. Names
// appear only where a state is rendered or parsed: witnesses, violations,
// spec-error text, Reachable and checkpoints.

// Abstract data classes. They mirror the canonical version numbers:
// fsm.NoData, canonFresh and canonObsolete.
const (
	classNone     = 0
	classFresh    = 1
	classObsolete = 2
)

const (
	// maxByteStates is the largest state count a one-byte cell holds: six
	// bits of state index above the two class bits.
	maxByteStates = 63
	// maxWordStates is the largest state count a two-byte cell holds.
	maxWordStates = 1<<14 - 1
)

// Flags of a cell value for the invariant check.
const (
	flagValid = 1 << iota
	flagExclusive
	flagOwner
	// flagStale marks a readable state without the latest value.
	flagStale
	flagCleanShared
)

// keyCodec holds the tables of one run: it steps, keys, checks, renders
// and parses the representatives of a (protocol, cache count, mode)
// triple. The engine, its level workers and the checkpoint layer share
// one instance, read-only.
type keyCodec struct {
	p    *fsm.Protocol
	cp   *compile.Protocol
	n    int
	mode string
	// cb is the cell width in bytes and w the width of a representative
	// and of a key: n cells and the memory byte.
	cb, w int
	// nc is the number of cell values, 4 per state.
	nc int
	// obs[r*nc+x] is the cell a non-originator cache holding cell x moves
	// to when rule r fires: observed, then invalidated to no data when the
	// next state holds no valid copy, then on a store either updated to
	// fresh (UpdateSharers) or aged from fresh to obsolete.
	obs []uint16
	// data[r*27+oc*9+mc*3+sc] is the originator's class | the memory's
	// class<<2 after rule r fires, given the originator's, the memory's
	// and the supplier's classes before it.
	data []byte
	// flags[x] are the invariant flags of cell value x.
	flags []byte
	// expand is expandOne instantiated for the cell width.
	expand func(kc *keyCodec, visited *stateset.Set, parent []byte, rank uint32, lw *levelWork)
}

func newKeyCodec(p *fsm.Protocol, n int, mode string) (*keyCodec, error) {
	cp, err := compile.Compile(p)
	if err != nil {
		return nil, err
	}
	kc := &keyCodec{p: p, cp: cp, n: n, mode: mode, cb: 1, nc: 4 * cp.NumStates}
	kc.expand = expandOne[uint8]
	if cp.NumStates > maxByteStates {
		kc.cb, kc.expand = 2, expandOne[uint16]
	}
	if cp.NumStates > maxWordStates {
		return nil, fmt.Errorf("enum: protocol %s has %d states, at most %d are supported", p.Name, cp.NumStates, maxWordStates)
	}
	kc.w = n*kc.cb + 1
	if kc.w > stateset.MaxWidth {
		return nil, fmt.Errorf("enum: %d caches of protocol %s need %d-byte keys, at most %d are supported", n, p.Name, kc.w, stateset.MaxWidth)
	}
	kc.obs = make([]uint16, len(cp.Rules)*kc.nc)
	kc.data = make([]byte, len(cp.Rules)*27)
	for ri := range cp.Rules {
		r := &cp.Rules[ri]
		for x := 0; x < kc.nc; x++ {
			next, c := r.Obs[x>>2], byte(x&3)
			switch {
			case !cp.ValidCopy[next]:
				c = classNone
			case r.Store && r.UpdateSharers:
				c = classFresh
			case r.Store:
				c = aged(c)
			}
			kc.obs[ri*kc.nc+x] = uint16(next)<<2 | uint16(c)
		}
		for e := 0; e < 27; e++ {
			orig, mem := dataEffect(r, byte(e/9), byte(e/3%3), byte(e%3))
			kc.data[ri*27+e] = orig | mem<<2
		}
	}
	kc.flags = make([]byte, kc.nc)
	for x := range kc.flags {
		s := x >> 2
		// In flag order: valid, exclusive, owner, stale, clean-shared.
		for f, on := range [...]bool{cp.ValidCopy[s], cp.Exclusive[s], cp.Owner[s], cp.Readable[s] && x&3 != classFresh, cp.CleanShared[s]} {
			if on {
				kc.flags[x] |= 1 << f
			}
		}
	}
	return kc, nil
}

// dataEffect applies rule r's data effect, in fsm.Step's order, to the
// classes of the originator (oc), the memory (mc) and the supplier (sc),
// and returns the originator's and the memory's classes afterwards.
func dataEffect(r *compile.Rule, oc, mc, sc byte) (orig, mem byte) {
	orig, mem = oc, mc
	switch r.Source {
	case fsm.SrcNone:
		orig = classNone
	case fsm.SrcMemory:
		orig = mc
	case fsm.SrcCache:
		orig = sc
		if r.SupplierWriteBack {
			mem = sc
		}
	}
	if r.Store {
		orig = classFresh
		if r.WriteThrough {
			mem = classFresh
		} else {
			mem = aged(mem)
		}
	}
	if r.WriteBackSelf {
		mem = orig
	}
	if r.DropSelf {
		orig = classNone
	}
	return orig, mem
}

// aged is the class of a value once a store has created a newer one.
func aged(c byte) byte {
	if c == classFresh {
		return classObsolete
	}
	return c
}

// class maps a version to its data class relative to the latest version,
// exactly as Canonicalize renames it.
func class(v, latest int64) byte {
	switch v {
	case fsm.NoData:
		return classNone
	case latest:
		return classFresh
	default:
		return classObsolete
	}
}

// classVersion is the inverse of class over the canonical domain.
func classVersion(c byte) int64 {
	switch c {
	case classNone:
		return fsm.NoData
	case classFresh:
		return canonFresh
	default:
		return canonObsolete
	}
}

// cellInt is a cell width: one byte or two.
type cellInt interface{ ~uint8 | ~uint16 }

// wide reports whether T is the two-byte cell; it folds to a constant in
// each instantiation.
func wide[T cellInt]() bool { return ^T(0) > 0xff }

func getCell[T cellInt](b []byte, i int) T {
	if wide[T]() {
		return T(uint16(b[2*i]) | uint16(b[2*i+1])<<8)
	}
	return T(b[i])
}

func putCell[T cellInt](b []byte, i int, v T) {
	if wide[T]() {
		b[2*i], b[2*i+1] = byte(v), byte(uint16(v)>>8)
		return
	}
	b[i] = byte(v)
}

// sortCells sorts the n cells of b in place (insertion sort: the cells
// of one key).
func sortCells[T cellInt](b []byte, n int) {
	for i := 1; i < n; i++ {
		v := getCell[T](b, i)
		j := i - 1
		for ; j >= 0 && getCell[T](b, j) > v; j-- {
			putCell(b, j+1, getCell[T](b, j))
		}
		putCell(b, j+1, v)
	}
}

// cell returns cell i of b, off the hot path.
func (kc *keyCodec) cell(b []byte, i int) int {
	if kc.cb == 2 {
		return int(getCell[uint16](b, i))
	}
	return int(b[i])
}

func (kc *keyCodec) setCell(b []byte, i, v int) {
	if kc.cb == 2 {
		putCell(b, i, uint16(v))
		return
	}
	b[i] = byte(v)
}

// keyOf returns the key of representative rep in dst[:0]: rep itself in
// strict mode, its cells sorted under counting equivalence.
func (kc *keyCodec) keyOf(rep, dst []byte) []byte {
	dst = append(dst[:0], rep...)
	if kc.mode == ModeCounting {
		if kc.cb == 2 {
			sortCells[uint16](dst, kc.n)
		} else {
			sortCells[uint8](dst, kc.n)
		}
	}
	return dst
}

// tupleOf returns in dst[:0] the state-only tuple of rep, the key of the
// strict tuple census (Result.TupleStates): its cells without their data
// classes and without the memory byte, in cache order in both modes.
func (kc *keyCodec) tupleOf(rep, dst []byte) []byte {
	dst = append(dst[:0], rep[:kc.w-1]...)
	for i := 0; i < kc.n; i++ {
		kc.setCell(dst, i, kc.cell(dst, i)&^3)
	}
	return dst
}

// encode returns in dst[:0] the representative of a named configuration,
// its versions classed relative to its Latest. The engine encodes only
// configurations over the protocol's declared states (checkpoint restore
// validates names first), so an unknown state is a program bug.
func (kc *keyCodec) encode(c *fsm.Config, dst []byte) []byte {
	dst = append(dst[:0], make([]byte, kc.w)...)
	for i, s := range c.States {
		idx := kc.cp.StateIndex(s)
		if idx < 0 {
			panic(fmt.Sprintf("enum: internal error: encoding undeclared state %q", s))
		}
		kc.setCell(dst, i, idx<<2|int(class(c.Versions[i], c.Latest)))
	}
	dst[kc.w-1] = class(c.MemVersion, c.Latest)
	return dst
}

// decode returns the canonical named configuration of a representative.
func (kc *keyCodec) decode(rep []byte) *fsm.Config {
	c := &fsm.Config{
		States:     make([]fsm.State, kc.n),
		Versions:   make([]int64, kc.n),
		MemVersion: classVersion(rep[kc.w-1]),
		Latest:     canonFresh,
	}
	for i := range c.States {
		x := kc.cell(rep, i)
		c.States[i], c.Versions[i] = kc.p.States[x>>2], classVersion(byte(x&3))
	}
	return c
}

// clean reports whether a representative satisfies every invariant of
// fsm.CheckConfig, from the flag table alone. The engine calls
// CheckConfig, for the violation text, only on the states it rejects.
func (kc *keyCodec) clean(rep []byte, strict bool) bool {
	mem := rep[kc.w-1]
	var valid, owners, exclValid, exclOther int
	for i := 0; i < kc.n; i++ {
		x := kc.cell(rep, i)
		f := kc.flags[x]
		if f&flagStale != 0 || strict && f&flagCleanShared != 0 && byte(x&3) != mem {
			return false
		}
		valid += int(f & flagValid)
		if f&flagOwner != 0 {
			owners++
		}
		if f&flagExclusive != 0 {
			if f&flagValid != 0 {
				exclValid++
			} else {
				exclOther++
			}
		}
	}
	// An exclusive cache conflicts with any other valid copy.
	return owners <= 1 && (exclValid == 0 || valid <= 1) && (exclOther == 0 || valid == 0)
}

// render returns the human-readable canonical string of a key, in exactly
// the format CanonicalKey produces (and checkpoints and witnesses store):
// "State:v,State:v|m:v|l:0" for strict mode and the sorted
// "State:v,...|m:v" form for counting mode, with v one of the canonical
// version numbers {-1 nodata, 0 fresh, -2 obsolete}.
func (kc *keyCodec) render(k []byte) string {
	pairs := make([]string, kc.n)
	for i := range pairs {
		x := kc.cell(k, i)
		pairs[i] = string(kc.p.States[x>>2]) + ":" + strconv.FormatInt(classVersion(byte(x&3)), 10)
	}
	mem := strconv.FormatInt(classVersion(k[kc.w-1]), 10)
	if kc.mode == ModeCounting {
		sort.Strings(pairs)
		return strings.Join(pairs, ",") + "|m:" + mem
	}
	return strings.Join(pairs, ",") + "|m:" + mem + "|l:0"
}

// renderTuple returns the state-only tuple string ("S1,S2,..."), matching
// the legacy Config.StateKey format.
func (kc *keyCodec) renderTuple(k []byte) string {
	parts := make([]string, kc.n)
	for i := range parts {
		parts[i] = string(kc.p.States[kc.cell(k, i)>>2])
	}
	return strings.Join(parts, ",")
}

// parse is the inverse of render: it rebuilds a key from its canonical
// string, validating state names and version numbers against the codec's
// protocol. Checkpoints store keys as rendered strings; parse restores
// them on resume.
func (kc *keyCodec) parse(s string) ([]byte, error) {
	if s == "" {
		return nil, fmt.Errorf("enum: empty state key")
	}
	fields := strings.Split(s, "|")
	pairs := strings.Split(fields[0], ",")
	if len(pairs) != kc.n {
		return nil, fmt.Errorf("enum: state key %q has %d caches, want %d", s, len(pairs), kc.n)
	}
	k := make([]byte, kc.w)
	for i, pair := range pairs {
		name, ver, err := splitPair(pair)
		if err != nil {
			return nil, fmt.Errorf("enum: state key %q: %w", s, err)
		}
		idx := kc.cp.StateIndex(fsm.State(name))
		if idx < 0 {
			return nil, fmt.Errorf("enum: state key %q references unknown state %q", s, name)
		}
		kc.setCell(k, i, idx<<2|int(class(ver, canonFresh)))
	}
	mem := canonFresh
	for _, f := range fields[1:] {
		if rest, ok := strings.CutPrefix(f, "m:"); ok {
			v, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("enum: state key %q: bad memory version %q", s, rest)
			}
			mem = v
		}
	}
	k[kc.w-1] = class(mem, canonFresh)
	return kc.keyOf(k, k), nil
}

// parseTuple restores a state-only tuple key from its rendered string.
func (kc *keyCodec) parseTuple(s string) ([]byte, error) {
	parts := strings.Split(s, ",")
	if len(parts) != kc.n {
		return nil, fmt.Errorf("enum: tuple key %q has %d caches, want %d", s, len(parts), kc.n)
	}
	k := make([]byte, kc.w-1)
	for i, name := range parts {
		idx := kc.cp.StateIndex(fsm.State(name))
		if idx < 0 {
			return nil, fmt.Errorf("enum: tuple key %q references unknown state %q", s, name)
		}
		kc.setCell(k, i, idx<<2)
	}
	return k, nil
}

func splitPair(pair string) (string, int64, error) {
	i := strings.LastIndexByte(pair, ':')
	if i < 0 {
		return "", 0, fmt.Errorf("malformed pair %q", pair)
	}
	v, err := strconv.ParseInt(pair[i+1:], 10, 64)
	if err != nil {
		return "", 0, fmt.Errorf("malformed version in pair %q", pair)
	}
	return pair[:i], v, nil
}
