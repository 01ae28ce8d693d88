// Package compile lowers an fsm.Protocol into the one shared compiled
// representation every execution layer runs on: dense integer-indexed jump
// tables ([state][op] → rule IDs) with flat guard, observe and data-source
// arrays. The interpreted protocol keeps string states and lazy map indexes,
// which is the right shape for authoring and reporting; the compiled form is
// the right shape for the hot loops — the simulator's per-reference step
// (millions of refs/sec in trace replay), the enumeration engines'
// successor expansion, and the symbolic engine's pre-resolved rule tables
// all read from it, so a protocol is lowered exactly once per run instead
// of once per consumer.
//
// The semantics of Step are a transliteration of fsm.Step onto integer
// states: identical transition order, identical data-version bookkeeping
// and identical error text, which the compile-parity suite pins across
// every library spec and every mutant.
package compile

import (
	"fmt"
	"strings"

	"repro/internal/fsm"
)

// Rule is the index-resolved form of one transition rule. The ID doubles as
// the index into both Protocol.Rules and the source fsm.Protocol.Rules, so
// a compiled result can always be mapped back to its declaration.
type Rule struct {
	// ID is the rule's declaration index.
	ID int32
	// From and Next are the originator's state indexes; Op indexes
	// Protocol.Ops.
	From, Next int32
	Op         int32

	// GuardKind with GuardStates (state indexes) mirrors fsm.Guard.
	// guardMask caches the same set as a bitmask when the protocol has at
	// most 64 states (every library protocol and every randproto sweep so
	// far); GuardIsValidSet records whether the set equals the valid-copy
	// set, which lets the symbolic engine's copy-count attribute decide the
	// guard outright.
	GuardKind       fsm.GuardKind
	GuardStates     []int32
	GuardIsValidSet bool
	guardMask       uint64

	// Obs[c] is the coincident next state of a cache observed in state c;
	// identity entries are materialized so the hot path never consults a
	// map. HasObserve preserves len(rule.Observe) > 0 — the simulator's
	// "this rule broadcasts on the bus" predicate — which is NOT implied by
	// Obs being non-identity (an explicit identity observe still snoops).
	Obs        []int32
	HasObserve bool

	// Data-effect fields, flattened from fsm.DataEffect. Suppliers keeps
	// the declared candidate order: supplier choice is order-sensitive.
	Source            fsm.DataSource
	Suppliers         []int32
	SupplierWriteBack bool
	Store             bool
	WriteThrough      bool
	UpdateSharers     bool
	WriteBackSelf     bool
	DropSelf          bool
	Spin              bool
}

// Protocol is the compiled representation of one protocol: every state, op
// and rule resolved to a dense integer index, with the per-(state, op)
// dispatch precomputed. Build one with Compile; the zero value is unusable.
type Protocol struct {
	// Src is the source definition, retained for reporting, error text and
	// mapping rule IDs back to *fsm.Rule. The compiled tables never read
	// its lazy map indexes.
	Src *fsm.Protocol

	// States and Ops alias the canonical declaration order; NumStates and
	// NumOps are their lengths.
	States    []fsm.State
	Ops       []fsm.Op
	NumStates int
	NumOps    int

	// Initial is the per-cache initial state index.
	Initial int32

	// Rules holds the compiled rules in declaration order (Rules[i].ID == i).
	Rules []Rule

	// rulesFor[from*NumOps+op] lists the applicable rule IDs in declaration
	// order; an empty list means the operation is a no-op in that state.
	rulesFor [][]int32

	// Per-state invariant membership, indexed by state.
	ValidCopy   []bool
	Exclusive   []bool
	Owner       []bool
	Readable    []bool
	CleanShared []bool
	// HasExclusive etc. record whether the corresponding set is non-empty,
	// so invariant checks can skip whole passes.
	HasExclusive   bool
	HasOwners      bool
	HasCleanShared bool
	// ExclusiveList etc. hold the same sets as state indexes in declaration
	// order, duplicates kept: the symbolic invariant check walks them and
	// reports violations in that order.
	ExclusiveList   []int32
	OwnerList       []int32
	ReadableList    []int32
	CleanSharedList []int32

	// opIsRead[k] reports Ops[k] == fsm.OpRead (the read-version probe of
	// StepResult applies only to reads).
	opIsRead []bool

	stateIdx map[fsm.State]int32
}

// Compile validates p and lowers it into the compiled representation. The
// result shares p's state and op slices but never mutates them; p itself is
// retained as Src.
func Compile(p *fsm.Protocol) (*Protocol, error) {
	if p == nil {
		return nil, fmt.Errorf("compile: nil protocol")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ns, no := len(p.States), len(p.Ops)
	cp := &Protocol{
		Src:       p,
		States:    p.States,
		Ops:       p.Ops,
		NumStates: ns,
		NumOps:    no,
		rulesFor:  make([][]int32, ns*no),
		stateIdx:  make(map[fsm.State]int32, ns),
		opIsRead:  make([]bool, no),
	}
	for i, s := range p.States {
		cp.stateIdx[s] = int32(i)
	}
	opIdx := make(map[fsm.Op]int32, no)
	for k, op := range p.Ops {
		opIdx[op] = int32(k)
		cp.opIsRead[k] = op == fsm.OpRead
	}
	cp.ValidCopy = cp.stateSet(p.Inv.ValidCopy)
	cp.Exclusive = cp.stateSet(p.Inv.Exclusive)
	cp.Owner = cp.stateSet(p.Inv.Owners)
	cp.Readable = cp.stateSet(p.Inv.Readable)
	cp.CleanShared = cp.stateSet(p.Inv.CleanShared)
	cp.HasExclusive = len(p.Inv.Exclusive) > 0
	cp.HasOwners = len(p.Inv.Owners) > 0
	cp.HasCleanShared = len(p.Inv.CleanShared) > 0
	cp.ExclusiveList = cp.stateList(p.Inv.Exclusive)
	cp.OwnerList = cp.stateList(p.Inv.Owners)
	cp.ReadableList = cp.stateList(p.Inv.Readable)
	cp.CleanSharedList = cp.stateList(p.Inv.CleanShared)

	validCount := 0
	for _, v := range cp.ValidCopy {
		if v {
			validCount++
		}
	}

	cp.Rules = make([]Rule, len(p.Rules))
	obsSlab := make([]int32, len(p.Rules)*ns)
	for i := range p.Rules {
		r := &p.Rules[i]
		cr := &cp.Rules[i]
		cr.ID = int32(i)
		cr.From = cp.stateIdx[r.From]
		cr.Next = cp.stateIdx[r.Next]
		cr.Op = opIdx[r.On]
		cr.GuardKind = r.Guard.Kind
		for _, gs := range r.Guard.States {
			gi := cp.stateIdx[gs]
			cr.GuardStates = append(cr.GuardStates, gi)
			if ns <= 64 {
				cr.guardMask |= uint64(1) << uint(gi)
			}
		}
		cr.GuardIsValidSet = len(cr.GuardStates) == validCount && cp.allValid(cr.GuardStates)
		cr.Obs = obsSlab[i*ns : (i+1)*ns]
		for c := 0; c < ns; c++ {
			cr.Obs[c] = cp.stateIdx[r.ObservedNext(p.States[c])]
		}
		cr.HasObserve = len(r.Observe) > 0
		cr.Source = r.Data.Source
		for _, ss := range r.Data.Suppliers {
			cr.Suppliers = append(cr.Suppliers, cp.stateIdx[ss])
		}
		cr.SupplierWriteBack = r.Data.SupplierWriteBack
		cr.Store = r.Data.Store
		cr.WriteThrough = r.Data.WriteThrough
		cr.UpdateSharers = r.Data.UpdateSharers
		cr.WriteBackSelf = r.Data.WriteBackSelf
		cr.DropSelf = r.Data.DropSelf
		cr.Spin = r.Data.Spin

		slot := int(cr.From)*no + int(cr.Op)
		cp.rulesFor[slot] = append(cp.rulesFor[slot], cr.ID)
	}
	cp.Initial = cp.stateIdx[p.Initial]
	return cp, nil
}

// stateSet renders a state list as a per-state membership array.
func (cp *Protocol) stateSet(states []fsm.State) []bool {
	out := make([]bool, cp.NumStates)
	for _, s := range states {
		out[cp.stateIdx[s]] = true
	}
	return out
}

// stateList resolves a state list to indexes, keeping order and duplicates.
func (cp *Protocol) stateList(states []fsm.State) []int32 {
	out := make([]int32, len(states))
	for i, s := range states {
		out[i] = cp.stateIdx[s]
	}
	return out
}

func (cp *Protocol) allValid(idxs []int32) bool {
	for _, i := range idxs {
		if !cp.ValidCopy[i] {
			return false
		}
	}
	return true
}

// StateIndex resolves a state name to its index, or -1 when undeclared.
// Boundary-conversion helper; the hot paths never call it.
func (cp *Protocol) StateIndex(s fsm.State) int {
	if i, ok := cp.stateIdx[s]; ok {
		return int(i)
	}
	return -1
}

// OpIndex resolves an operation to its index in Ops, or -1 when undeclared.
func (cp *Protocol) OpIndex(op fsm.Op) int {
	for k, o := range cp.Ops {
		if o == op {
			return k
		}
	}
	return -1
}

// RuleIDs returns the applicable rule IDs for an originator in state from
// applying op, in declaration order. The returned slice is shared; callers
// must not mutate it.
func (cp *Protocol) RuleIDs(from, op int) []int32 {
	return cp.rulesFor[from*cp.NumOps+op]
}

// HasRules reports whether (from, op) dispatches to at least one rule —
// the no-op skip of the enumeration engines.
func (cp *Protocol) HasRules(from, op int) bool {
	return len(cp.rulesFor[from*cp.NumOps+op]) != 0
}

// RulePtr maps a rule ID back to the source declaration.
func (cp *Protocol) RulePtr(id int32) *fsm.Rule { return &cp.Src.Rules[id] }

// Config is the integer-state counterpart of fsm.Config: the same concrete
// global state of one block, with per-cache states held as indexes instead
// of strings so the step hot path does no map lookups and no string
// comparisons.
type Config struct {
	States     []int32
	Versions   []int64
	MemVersion int64
	Latest     int64
}

// NewConfig returns the initial compiled configuration for n caches: every
// cache in the initial state with no data, memory fresh at version 0.
func (cp *Protocol) NewConfig(n int) *Config {
	c := &Config{
		States:   make([]int32, n),
		Versions: make([]int64, n),
	}
	for i := range c.States {
		c.States[i] = cp.Initial
		c.Versions[i] = fsm.NoData
	}
	return c
}

// CopyFrom overwrites c with src, reusing c's capacity.
func (c *Config) CopyFrom(src *Config) {
	c.States = append(c.States[:0], src.States...)
	c.Versions = append(c.Versions[:0], src.Versions...)
	c.MemVersion = src.MemVersion
	c.Latest = src.Latest
}

// N returns the number of caches.
func (c *Config) N() int { return len(c.States) }

// Encode converts an interpreted configuration into compiled form, reusing
// dst's capacity. It errors on states outside the compiled protocol — the
// only place a name lookup happens, once per conversion rather than once
// per step.
func (cp *Protocol) Encode(src *fsm.Config, dst *Config) error {
	dst.States = dst.States[:0]
	for _, s := range src.States {
		i, ok := cp.stateIdx[s]
		if !ok {
			return fmt.Errorf("compile: protocol %s: state %q not declared", cp.Src.Name, s)
		}
		dst.States = append(dst.States, i)
	}
	dst.Versions = append(dst.Versions[:0], src.Versions...)
	dst.MemVersion = src.MemVersion
	dst.Latest = src.Latest
	return nil
}

// Decode converts a compiled configuration back to the interpreted form,
// reusing dst's capacity. State strings come from the canonical declaration
// slice, so decoded configurations share storage with the protocol.
func (cp *Protocol) Decode(src *Config, dst *fsm.Config) {
	dst.States = dst.States[:0]
	for _, i := range src.States {
		dst.States = append(dst.States, cp.States[i])
	}
	dst.Versions = append(dst.Versions[:0], src.Versions...)
	dst.MemVersion = src.MemVersion
	dst.Latest = src.Latest
}

// String renders the configuration as (q1, q2, ..., qn), matching
// fsm.Config.String for the same state tuple. Error-path only.
func (cp *Protocol) String(c *Config) string {
	var b strings.Builder
	b.WriteByte('(')
	for i, s := range c.States {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(string(cp.States[s]))
	}
	b.WriteByte(')')
	return b.String()
}

// StepResult reports what happened during one compiled Step; it carries the
// rule by ID so hot-path callers can count without touching the source
// declaration.
type StepResult struct {
	// RuleID is the declaration index of the rule that fired, or -1 when
	// the operation was a no-op in the originator's state.
	RuleID int32
	// ReadVersion is the version the processor observed on a read, or
	// fsm.NoData for other operations.
	ReadVersion int64
	// Supplier is the index of the cache that supplied data, or -1.
	Supplier int
}

// Result converts to the interpreted fsm.StepResult.
func (cp *Protocol) Result(r StepResult) fsm.StepResult {
	out := fsm.StepResult{ReadVersion: r.ReadVersion, Supplier: r.Supplier}
	if r.RuleID >= 0 {
		out.Rule = &cp.Src.Rules[r.RuleID]
	}
	return out
}

// evalGuard decides a compiled guard for originator origin: the exact
// semantics of fsm.EvalGuard, on indexes. The bitmask path covers every
// protocol with at most 64 states; larger ones scan the guard set.
func (cp *Protocol) evalGuard(r *Rule, states []int32, origin int) bool {
	switch r.GuardKind {
	case fsm.GuardAlways:
		return true
	case fsm.GuardAnyOther, fsm.GuardNoOther:
		found := false
		if cp.NumStates <= 64 {
			for j, s := range states {
				if j != origin && r.guardMask&(uint64(1)<<uint(s)) != 0 {
					found = true
					break
				}
			}
		} else {
			for j, s := range states {
				if j == origin {
					continue
				}
				for _, gs := range r.GuardStates {
					if s == gs {
						found = true
						break
					}
				}
				if found {
					break
				}
			}
		}
		if r.GuardKind == fsm.GuardAnyOther {
			return found
		}
		return !found
	default:
		return false
	}
}

// Step applies operation op (by index) issued by cache origin to
// configuration c, mutating it in place. It is the compiled transliteration
// of fsm.Step: same transition order, same version bookkeeping, and —
// because spec-level errors surface in enumeration reports — the same error
// text, rendered from the pre-step configuration exactly as the interpreted
// path renders it. On error c is unchanged.
func (cp *Protocol) Step(c *Config, origin, op int) (StepResult, error) {
	res := StepResult{RuleID: -1, ReadVersion: fsm.NoData, Supplier: -1}
	if origin < 0 || origin >= len(c.States) {
		return res, fmt.Errorf("fsm: step: cache index %d out of range", origin)
	}
	rules := cp.rulesFor[int(c.States[origin])*cp.NumOps+op]
	if len(rules) == 0 {
		return res, nil // no-op in this state
	}
	var rule *Rule
	for _, id := range rules {
		r := &cp.Rules[id]
		if cp.evalGuard(r, c.States, origin) {
			rule = r
			break
		}
	}
	if rule == nil {
		return res, fmt.Errorf("fsm: protocol %s: no guard matched for cache %d in state %s on %s of %s",
			cp.Src.Name, origin, cp.States[c.States[origin]], cp.Ops[op], cp.String(c))
	}
	res.RuleID = rule.ID

	// 1. Locate a supplier and capture its data before any state changes.
	origVer := c.Versions[origin]
	switch rule.Source {
	case fsm.SrcNone:
		origVer = fsm.NoData
	case fsm.SrcKeep:
		// unchanged
	case fsm.SrcMemory:
		origVer = c.MemVersion
	case fsm.SrcCache:
		sup := -1
		for _, ss := range rule.Suppliers {
			for j, s := range c.States {
				if j != origin && s == ss {
					sup = j
					break
				}
			}
			if sup >= 0 {
				break
			}
		}
		if sup < 0 {
			src := cp.Src.Rules[rule.ID]
			return res, fmt.Errorf("fsm: protocol %s: rule %s fired with no supplier in %v for %s",
				cp.Src.Name, src.Name, src.Data.Suppliers, cp.String(c))
		}
		res.Supplier = sup
		origVer = c.Versions[sup]
		if rule.SupplierWriteBack {
			c.MemVersion = c.Versions[sup]
		}
	}

	// 2. Coincident (observed) transitions on all other caches.
	for j := range c.States {
		if j == origin {
			continue
		}
		next := rule.Obs[c.States[j]]
		c.States[j] = next
		if !cp.ValidCopy[next] {
			c.Versions[j] = fsm.NoData
		}
	}

	// 3. Originator transition.
	c.States[origin] = rule.Next

	// 4. Store semantics: a new value is created; every copy not explicitly
	// updated becomes stale relative to it.
	if rule.Store {
		c.Latest++
		origVer = c.Latest
		if rule.WriteThrough {
			c.MemVersion = c.Latest
		}
		if rule.UpdateSharers {
			for j := range c.States {
				if j != origin && cp.ValidCopy[c.States[j]] {
					c.Versions[j] = c.Latest
				}
			}
		}
	}

	// 5. Write-back and drop.
	if rule.WriteBackSelf {
		c.MemVersion = origVer
	}
	if rule.DropSelf {
		origVer = fsm.NoData
	}
	c.Versions[origin] = origVer

	if cp.opIsRead[op] {
		res.ReadVersion = c.Versions[origin]
	}
	return res, nil
}
