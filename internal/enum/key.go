package enum

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/compile"
	"repro/internal/fsm"
)

// This file is the state-identity layer of the explicit-state engines.
//
// The mⁿ spaces of Section 3.1 make the per-successor cost of "have I seen
// this global state?" the dominant term of an enumeration run, and most
// successors (about 95% on the large strict runs) are duplicates. So a
// successor is keyed straight from the compiled configuration the step
// produced (compile.Config: int32 state indices and raw versions), with no
// name lookup and no allocation, and a duplicate is dropped before it is
// ever decoded back to a named fsm.Config. In the packed encoding every
// cache is exactly one byte (state index in the high six bits, the 3-value
// abstract data domain of Definition 4 in the low two), followed by one
// byte for the memory's data class and the packed marker; a whole
// configuration is a fixed-width comparable value whose first n+1 bytes
// are also its visited-set key. Data classes are taken relative to the
// configuration's Latest version, exactly as Canonicalize renames them, so
// keying before canonicalization is sound. Counting equivalence
// (Definition 5) becomes an in-place byte sort.
//
// Packing applies when the protocol has at most maxPackedStates states and
// the run has at most maxPackedCaches caches; beyond that the codec falls
// back transparently to the legacy canonical strings, so results never
// depend on which representation a run used. State names appear only where
// keys are rendered (checkpoints, witnesses) or parsed back on resume.

const (
	// maxPackedCaches is the largest cache count the packed encoding can
	// hold: one byte per cache plus the byte after them, reserved for the
	// memory data class and the packed marker.
	maxPackedCaches = 63
	// maxPackedStates is the largest per-cache state count encodable in the
	// six high bits of a packed byte.
	maxPackedStates = 63
	// packedMark is set in the reserved byte of every packed key so that no
	// valid packed key equals the zero Key (the "no parent" sentinel).
	packedMark = 0x80
	// tupleMark distinguishes state-only tuple keys from full keys.
	tupleMark = 0x40
)

// Abstract data classes of the packed encoding. They mirror the canonical
// version numbers: NoData, canonFresh and canonObsolete.
const (
	classNone     = 0
	classFresh    = 1
	classObsolete = 2
)

// Key is the comparable identity of a canonical configuration under one
// equivalence mode. In packed mode the identity lives entirely in the
// fixed-width byte array — n cache bytes, then the reserved byte, then
// zeros — and building a Key allocates nothing; in fallback mode (very
// large protocols or cache counts) the identity is the legacy canonical
// string. The zero Key is reserved as the "no parent" sentinel of the
// provenance map.
type Key struct {
	packed [maxPackedCaches + 1]byte
	str    string
}

// isZero reports whether k is the zero sentinel.
func (k Key) isZero() bool { return k == Key{} }

// keyCodec computes, renders and parses the keys of one run. A codec is
// specific to a (protocol, cache count, mode) triple; both engines and the
// checkpoint layer of a run share one instance.
type keyCodec struct {
	p      *fsm.Protocol
	n      int
	mode   string
	packed bool
	// cp is the compiled protocol expandOne steps through: the run's one
	// lowering, shared by every level worker.
	cp *compile.Protocol
}

// testForceStringKeys, when set by tests, makes every codec fall back to
// the legacy canonical strings (and so every run to the map-backed store),
// so the packed path can be checked against the string path on identical
// inputs.
var testForceStringKeys = false

func newKeyCodec(p *fsm.Protocol, n int, mode string) *keyCodec {
	kc := &keyCodec{p: p, n: n, mode: mode}
	// Compilation fails only for protocols that fail Validate, which every
	// caller has already checked (newBFS, checkpoint restore, tests on
	// library protocols); a failure here is therefore a program bug.
	cp, err := compile.Compile(p)
	if err != nil {
		panic(fmt.Sprintf("enum: compiling validated protocol %s: %v", p.Name, err))
	}
	kc.cp = cp
	kc.packed = n >= 1 && n <= maxPackedCaches && p.NumStates() <= maxPackedStates && !testForceStringKeys
	return kc
}

// class maps a version to its packed data class relative to the latest
// version: for a canonicalized configuration v is one of {NoData, Latest,
// canonObsolete}, and for a raw one every version other than NoData and
// Latest classifies as obsolete, exactly like Canonicalize renames it.
//
// It is branch-free: the data classes of successive caches are
// unpredictable, and branches on them mispredict on the key hot path.
// fresh is 1 + 0 and obsolete 1 + 1, zeroed for NoData.
func class(v, latest int64) byte {
	return byte((1 + nonZero(v^latest)) * nonZero(v^fsm.NoData))
}

// nonZero is 1 for x != 0 and 0 for x == 0, without a branch.
func nonZero(x int64) uint64 { return uint64(x|-x) >> 63 }

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

// compiledKey sets *k to the equivalence-class key of a compiled
// configuration, canonicalized or not: strict tuple identity (Section 3.1)
// for ModeStrict, multiset identity (Definition 5) for ModeCounting. This
// is the engines' hot path; packed codecs only, and *k must be zero.
func (kc *keyCodec) compiledKey(k *Key, c *compile.Config) {
	for i, s := range c.States {
		k.packed[i] = byte(s)<<2 | class(c.Versions[i], c.Latest)
	}
	if kc.mode == ModeCounting {
		sortBytes(k.packed[:kc.n])
	}
	k.packed[kc.n] = packedMark | class(c.MemVersion, c.Latest)
}

// compiledTupleKey sets *k to the state-only tuple identity (data ignored)
// of a compiled configuration, the strict tuple census key of
// Result.TupleStates. It is order-sensitive in both modes, exactly like
// the legacy Config.StateKey. Packed codecs only, and *k must be zero.
func (kc *keyCodec) compiledTupleKey(k *Key, c *compile.Config) {
	for i, s := range c.States {
		k.packed[i] = byte(s) << 2
	}
	k.packed[kc.n] = packedMark | tupleMark
}

// key returns the equivalence-class key of a canonicalized named
// configuration. It resolves state names, so the engines use it only off
// the hot path: the initial state, resumed frontiers and the interpreted
// reference expansion.
func (kc *keyCodec) key(c *fsm.Config) Key {
	if !kc.packed {
		if kc.mode == ModeCounting {
			return Key{str: countingKey(c)}
		}
		return Key{str: strictKey(c)}
	}
	var states [maxPackedCaches]int32
	var k Key
	kc.compiledKey(&k, &compile.Config{States: kc.stateIndices(c, states[:0]), Versions: c.Versions, MemVersion: c.MemVersion, Latest: c.Latest})
	return k
}

// tupleKey is compiledTupleKey for a named configuration (off the hot
// path, like key).
func (kc *keyCodec) tupleKey(c *fsm.Config) Key {
	if !kc.packed {
		return Key{str: c.StateKey()}
	}
	var states [maxPackedCaches]int32
	var k Key
	kc.compiledTupleKey(&k, &compile.Config{States: kc.stateIndices(c, states[:0])})
	return k
}

// stateIndices appends the compiled index of every cache state of c to
// dst. The engines only key configurations over the protocol's declared
// states (checkpoint restore validates names first), so an unknown state
// is a program bug.
func (kc *keyCodec) stateIndices(c *fsm.Config, dst []int32) []int32 {
	for _, s := range c.States {
		i := kc.cp.StateIndex(s)
		if i < 0 {
			panic(fmt.Sprintf("enum: internal error: keying undeclared state %q", s))
		}
		dst = append(dst, int32(i))
	}
	return dst
}

// sortBytes sorts a small byte slice in place (insertion sort: n ≤ 63).
func sortBytes(b []byte) {
	for i := 1; i < len(b); i++ {
		v := b[i]
		j := i - 1
		for j >= 0 && b[j] > v {
			b[j+1] = b[j]
			j--
		}
		b[j+1] = v
	}
}

// render returns the human-readable canonical string of a key, in exactly
// the format the legacy string keys used (and that checkpoints store):
// "State:v,State:v|m:v|l:0" for strict mode and the sorted
// "State:v,...|m:v" form for counting mode, with v one of the canonical
// version numbers {-1 nodata, 0 fresh, -2 obsolete}.
func (kc *keyCodec) render(k Key) string {
	if k.str != "" {
		return k.str
	}
	if k.isZero() {
		return ""
	}
	pairs := make([]string, kc.n)
	for i := 0; i < kc.n; i++ {
		b := k.packed[i]
		pairs[i] = string(kc.p.States[b>>2]) + ":" + strconv.FormatInt(classVersion(b&3), 10)
	}
	mem := strconv.FormatInt(classVersion(k.packed[kc.n]&3), 10)
	if kc.mode == ModeCounting {
		sort.Strings(pairs)
		return strings.Join(pairs, ",") + "|m:" + mem
	}
	return strings.Join(pairs, ",") + "|m:" + mem + "|l:0"
}

// renderTuple returns the state-only tuple string ("S1,S2,..."), matching
// the legacy Config.StateKey format.
func (kc *keyCodec) renderTuple(k Key) string {
	if k.str != "" {
		return k.str
	}
	parts := make([]string, kc.n)
	for i := 0; i < kc.n; i++ {
		parts[i] = string(kc.p.States[k.packed[i]>>2])
	}
	return strings.Join(parts, ",")
}

// parse is the inverse of render: it rebuilds a Key from its canonical
// string, validating state names and version numbers against the codec's
// protocol. Checkpoints store keys as rendered strings; parse restores
// them on resume.
func (kc *keyCodec) parse(s string) (Key, error) {
	if s == "" {
		return Key{}, fmt.Errorf("enum: empty state key")
	}
	if !kc.packed {
		return Key{str: s}, nil
	}
	fields := strings.Split(s, "|")
	pairs := strings.Split(fields[0], ",")
	if len(pairs) != kc.n {
		return Key{}, fmt.Errorf("enum: state key %q has %d caches, want %d", s, len(pairs), kc.n)
	}
	var k Key
	for i, pair := range pairs {
		name, ver, err := splitPair(pair)
		if err != nil {
			return Key{}, fmt.Errorf("enum: state key %q: %w", s, err)
		}
		idx := kc.cp.StateIndex(fsm.State(name))
		if idx < 0 {
			return Key{}, fmt.Errorf("enum: state key %q references unknown state %q", s, name)
		}
		k.packed[i] = byte(idx)<<2 | versionClass(ver)
	}
	mem := int64(canonFresh)
	for _, f := range fields[1:] {
		if rest, ok := strings.CutPrefix(f, "m:"); ok {
			v, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				return Key{}, fmt.Errorf("enum: state key %q: bad memory version %q", s, rest)
			}
			mem = v
		}
	}
	if kc.mode == ModeCounting {
		sortBytes(k.packed[:kc.n])
	}
	k.packed[kc.n] = packedMark | versionClass(mem)
	return k, nil
}

// parseTuple restores a state-only tuple key from its rendered string.
func (kc *keyCodec) parseTuple(s string) (Key, error) {
	if !kc.packed {
		return Key{str: s}, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != kc.n {
		return Key{}, fmt.Errorf("enum: tuple key %q has %d caches, want %d", s, len(parts), kc.n)
	}
	var k Key
	for i, name := range parts {
		idx := kc.cp.StateIndex(fsm.State(name))
		if idx < 0 {
			return Key{}, fmt.Errorf("enum: tuple key %q references unknown state %q", s, name)
		}
		k.packed[i] = byte(idx) << 2
	}
	k.packed[kc.n] = packedMark | tupleMark
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

func versionClass(v int64) byte {
	return class(v, canonFresh)
}

// cfgPool recycles fsm.Config allocations across expansion steps: a
// successor that deduplicates against the visited set, and a frontier state
// that has been fully expanded, return their backing slices to the pool for
// the next Step to reuse. sync.Pool empties itself under GC pressure, so
// the pool never pins memory.
var cfgPool = sync.Pool{New: func() any { return new(fsm.Config) }}

// cloneConfig returns a pooled deep copy of src.
func cloneConfig(src *fsm.Config) *fsm.Config {
	c := cfgPool.Get().(*fsm.Config)
	c.CopyFrom(src)
	return c
}

// releaseConfig returns a configuration that no longer escapes to the pool.
func releaseConfig(c *fsm.Config) {
	if c != nil {
		cfgPool.Put(c)
	}
}
