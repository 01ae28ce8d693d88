package symbolic

import (
	"fmt"

	"repro/internal/compile"
	"repro/internal/fsm"
)

// Engine computes symbolic successors of composite states for one protocol.
// It implements the expansion rules of Section 3.2.3 (aggregation, coincident
// transitions, one-step transitions and the N-steps transitions, the latter
// via abstract copy-count arithmetic plus containment pruning).
type Engine struct {
	p *fsm.Protocol
	n int
	// initial is the per-cache initial state index.
	initial int
	valid   []bool
	// validIdxs caches the indexes of the valid-copy states.
	validIdxs []int
	// exclusive, owners, readable and cleanShared are Check's invariant
	// sets as state indexes, in declaration order.
	exclusive, owners, readable, cleanShared []int
	// tabs and eventTabs pre-resolve every state-name lookup a rule needs
	// (observed targets, next state, suppliers, guard set) into integer
	// indexes. The expansion inner loops run entirely on these tables; the
	// string-keyed protocol maps are only touched at construction time.
	tabs      map[*fsm.Rule]*ruleTab
	eventTabs [][][]*ruleTab // [class][op] -> applicable rule tables
}

// ruleTab is the index-resolved form of one transition rule.
type ruleTab struct {
	rule *fsm.Rule
	// obs[c] is the class every member of class c observes into.
	obs []int
	// next is the originator's destination class.
	next int
	// suppliers are the candidate supplier classes (SrcCache rules).
	suppliers []int
	// guardIdxs are the classes tested by an AnyOther/NoOther guard, and
	// guardIsValidSet records whether that set is exactly the valid-copy set
	// (which lets the copy-count attribute decide the guard outright).
	guardIdxs       []int
	guardIsValidSet bool
}

// NewEngine validates the protocol and returns an engine for it. The rule
// tables are a thin adapter over the shared compiled representation
// (internal/compile): compilation resolves every state-name lookup a rule
// needs into integer indexes once, and the engine copies those indexes into
// its ruleTab form. TestExpandMatchesGolden pins the tables through the
// expansions they drive.
func NewEngine(p *fsm.Protocol) (*Engine, error) {
	cp, err := compile.Compile(p) // validates p
	if err != nil {
		return nil, err
	}
	e := newEngineShell(cp)
	e.buildTablesCompiled(cp)
	return e, nil
}

// newEngineShell builds the engine sans rule tables: the valid-copy set,
// the initial state and the invariant sets, all as state indexes taken
// from the compiled protocol.
func newEngineShell(cp *compile.Protocol) *Engine {
	e := &Engine{p: cp.Src, n: cp.NumStates, initial: int(cp.Initial), valid: cp.ValidCopy}
	for i, v := range e.valid {
		if v {
			e.validIdxs = append(e.validIdxs, i)
		}
	}
	e.exclusive = indexList(cp.ExclusiveList)
	e.owners = indexList(cp.OwnerList)
	e.readable = indexList(cp.ReadableList)
	e.cleanShared = indexList(cp.CleanSharedList)
	return e
}

func indexList(l []int32) []int {
	out := make([]int, len(l))
	for i, v := range l {
		out[i] = int(v)
	}
	return out
}

// buildTablesCompiled populates tabs and eventTabs from the compiled
// protocol: a straight index copy, no name resolution.
func (e *Engine) buildTablesCompiled(cp *compile.Protocol) {
	p := e.p
	e.tabs = make(map[*fsm.Rule]*ruleTab, len(p.Rules))
	tabSlab := make([]ruleTab, len(p.Rules))
	obsSlab := make([]int, len(p.Rules)*e.n)
	for i := range cp.Rules {
		cr := &cp.Rules[i]
		r := &p.Rules[i]
		t := &tabSlab[i]
		t.rule, t.obs, t.next = r, obsSlab[i*e.n:(i+1)*e.n], int(cr.Next)
		for c := 0; c < e.n; c++ {
			t.obs[c] = int(cr.Obs[c])
		}
		for _, s := range cr.Suppliers {
			t.suppliers = append(t.suppliers, int(s))
		}
		for _, g := range cr.GuardStates {
			t.guardIdxs = append(t.guardIdxs, int(g))
		}
		t.guardIsValidSet = cr.GuardIsValidSet
		e.tabs[r] = t
	}
	e.eventTabs = make([][][]*ruleTab, e.n)
	for oi := 0; oi < e.n; oi++ {
		e.eventTabs[oi] = make([][]*ruleTab, len(p.Ops))
		for k := range p.Ops {
			for _, id := range cp.RuleIDs(oi, k) {
				e.eventTabs[oi][k] = append(e.eventTabs[oi][k], e.tabs[&p.Rules[id]])
			}
		}
	}
}

// Protocol returns the protocol the engine was built for.
func (e *Engine) Protocol() *fsm.Protocol { return e.p }

// Initial returns the paper's initial composite state: every cache Invalid
// with no data — (Initial⁺) — and memory fresh.
func (e *Engine) Initial() *CState {
	reps := make([]Rep, e.n)
	cdata := make([]Data, e.n)
	reps[e.initial] = RPlus
	attr := CountNull
	if e.p.Characteristic == fsm.CharSharing {
		attr = CountZero
	}
	st, ok := e.normalize(reps, cdata, attr, DFresh)
	if !ok {
		panic("symbolic: initial state infeasible")
	}
	return st
}

// MakeState builds a normalized composite state from explicit components;
// it returns false when the combination is infeasible. Primarily used by
// tests and by the abstraction function of the cross-validation harness.
func (e *Engine) MakeState(reps []Rep, cdata []Data, attr Count, mdata Data) (*CState, bool) {
	r := append([]Rep(nil), reps...)
	d := append([]Data(nil), cdata...)
	return e.normalize(r, d, attr, mdata)
}

// Label identifies a symbolic transition: the operation, the state class of
// the originating cache, and whether the edge stands for an N-steps
// derivation (rule 4 of Section 3.2.3).
type Label struct {
	Op     fsm.Op
	Origin fsm.State
	NStep  bool
}

// String renders the label like the paper's Figure 4: operation with the
// originator class as a subscript and the N-step superscript, e.g. "R^n_inv".
func (l Label) String() string {
	s := string(l.Op)
	if l.NStep {
		s += "^n"
	}
	if l.Origin != "" {
		s += "_" + string(l.Origin)
	}
	return s
}

// Succ is one symbolic successor.
type Succ struct {
	Label Label
	Rule  *fsm.Rule
	State *CState
}

// scenario is a refinement of a composite state during one transition: the
// originating cache has been removed, star classes may have been pinned
// non-empty (RPlus) or empty (RZero) to decide guards and suppliers, and
// othersIval bounds the number of valid copies held by the other caches.
type scenario struct {
	rem        []Rep // post-removal repetition operators
	cdata      []Data
	mdata      Data
	othersIval ival
	origIdx    int
	origData   Data
}

// scratch is the reusable working memory of successor construction: the
// scenarios of one event's guard cascade and supplier choice, the
// cascade's worklists, and the vectors one successor is pooled and
// canonicalized in. Every goroutine that expands states owns one — the
// sequential driver, each speculation worker, each Successors call — and
// the Engine, which the workers share, holds none. The zero value is ready
// to use; a scratch serves one engine.
type scratch struct {
	// scs is the scenario pool; scs[:used] are live in the current event.
	scs  []*scenario
	used int

	picks          []pick
	pending, still []*scenario
	trues          []*scenario
	stars          []int
	counts         []Count

	// reps, data and contrib pool the classes of one successor; r2 and d2
	// are the copy canonicalize rewrites, and key is its canonical key.
	reps    []Rep
	data    []Data
	contrib []bool
	r2      []Rep
	d2      []Data
	key     []byte

	// recs is the expander's record map, read-only here: emit returns the
	// interned state of a key seen before instead of allocating one. It is
	// nil in the scratches of speculation workers and Successors calls,
	// which must not read the map the merge loop writes.
	recs map[string]*keyRecord
}

// pick is a guard-resolved scenario with the rule that fires in it.
type pick struct {
	sc   *scenario
	rule *ruleTab
}

// scenario returns a pooled scenario with n-class vectors; its fields are
// stale and must all be set by the caller.
func (x *scratch) scenario(n int) *scenario {
	if x.used == len(x.scs) {
		x.scs = append(x.scs, &scenario{rem: make([]Rep, n), cdata: make([]Data, n)})
	}
	sc := x.scs[x.used]
	x.used++
	return sc
}

// clone returns a pooled copy of sc.
func (x *scratch) clone(sc *scenario) *scenario {
	c := x.scenario(len(sc.rem))
	rem, cdata := c.rem, c.cdata
	*c = *sc
	c.rem, c.cdata = rem, cdata
	copy(c.rem, sc.rem)
	copy(c.cdata, sc.cdata)
	return c
}

// match records sc as a scenario in which tab's guard holds.
func (x *scratch) match(sc *scenario, tab *ruleTab) {
	if sc != nil {
		x.picks = append(x.picks, pick{sc, tab})
	}
}

// miss records sc as a scenario the next rule of the cascade must decide.
func (x *scratch) miss(sc *scenario) {
	if sc != nil {
		x.still = append(x.still, sc)
	}
}

// vectors sizes and clears the successor vectors for n classes.
func (x *scratch) vectors(n int) {
	if len(x.reps) != n {
		x.reps, x.data, x.contrib = make([]Rep, n), make([]Data, n), make([]bool, n)
		x.r2, x.d2 = make([]Rep, n), make([]Data, n)
	}
	clear(x.reps)
	clear(x.data)
	clear(x.contrib)
}

// feasible checks the scenario's class operators against its copy-count
// bound.
func (e *Engine) feasible(sc *scenario) bool {
	min, max := 0, 0
	for _, i := range e.validIdxs {
		min += sc.rem[i].Min()
		max += sc.rem[i].Max()
	}
	return satur(min) <= sc.othersIval.hi && satur(max) >= sc.othersIval.lo
}

// propagate tightens a scenario's class operators against its copy-count
// bound and reports feasibility. Two propagations matter for precision:
// when the bound forbids any copy, every star-operated valid class must be
// empty; and when the bound is exact and already met by the definite
// instances, stars must be empty and plus classes are pinned to singletons.
// Without this, classes that a guard has proven empty would ride along as
// "ghosts" and later be mistaken for populated classes.
func (e *Engine) propagate(sc *scenario) bool {
	if !e.feasible(sc) {
		return false
	}
	b := sc.othersIval
	if b.hi == 0 {
		for _, i := range e.validIdxs {
			if sc.rem[i] == RStar {
				sc.rem[i] = RZero
			}
		}
		return true
	}
	if b.lo == b.hi && b.hi < manyCount {
		min := 0
		for _, i := range e.validIdxs {
			min += sc.rem[i].Min()
		}
		if min == b.hi {
			for _, i := range e.validIdxs {
				switch sc.rem[i] {
				case RStar:
					sc.rem[i] = RZero
				case RPlus:
					sc.rem[i] = ROne
				}
			}
		}
	}
	return true
}

// Successors expands every applicable (class, operation) pair of s and
// returns the generated successors. Spec-level problems (a guard cascade
// that fails to cover a reachable scenario, or a rule firing with no
// available supplier) are returned as errors alongside the successors that
// could be generated; they indicate an ill-formed protocol definition.
func (e *Engine) Successors(s *CState) ([]Succ, []error) {
	var x scratch
	var out []Succ
	var errs []error
	for oi := 0; oi < e.n; oi++ {
		if !s.Rep(oi).CanBePositive() {
			continue
		}
		for k, op := range e.p.Ops {
			rules := e.eventTabs[oi][k]
			if len(rules) == 0 {
				continue
			}
			var err error
			out, err = e.expandEvent(&x, out, s, oi, op, rules)
			if err != nil {
				errs = append(errs, err)
			}
		}
	}
	return out, errs
}

// expandEvent applies operation op originated by a cache in class oi,
// appending the event's successors to dst. Successors equal in state and
// N-step tag are emitted once, the first one winning.
func (e *Engine) expandEvent(x *scratch, dst []Succ, s *CState, oi int, op fsm.Op, rules []*ruleTab) ([]Succ, error) {
	// Build the base scenario: pin the origin class non-empty, remove the
	// originator, and derive the copy-count bound for the other caches.
	x.used = 0
	base := x.scenario(e.n)
	for i := range base.rem {
		base.rem[i], base.cdata[i] = s.Rep(i), s.CData(i)
	}
	base.mdata = s.mdata
	base.origIdx = oi
	if base.rem[oi] == RStar {
		base.rem[oi] = RPlus // originate only from the non-empty members
	}
	rem, err := removeOne(base.rem[oi])
	if err != nil {
		return dst, err
	}
	base.rem[oi] = rem
	base.origData = s.CData(oi)
	base.othersIval = s.attr.interval()
	if e.valid[oi] && s.attr != CountNull {
		base.othersIval = base.othersIval.sub1()
	}
	if !e.propagate(base) {
		return dst, nil // the origin class cannot actually be populated
	}

	// Resolve the guard cascade, splitting scenarios over ambiguity.
	x.picks = x.picks[:0]
	x.pending = append(x.pending[:0], base)
	for _, rule := range rules {
		if len(x.pending) == 0 {
			break
		}
		x.still = x.still[:0]
		for _, sc := range x.pending {
			e.splitGuard(x, sc, rule)
		}
		x.pending, x.still = x.still, x.pending
	}
	var specErr error
	if len(x.pending) > 0 {
		specErr = fmt.Errorf("symbolic: protocol %s: guard cascade for (%s,%s) does not cover state %s",
			e.p.Name, e.p.States[oi], op, s.StructureString(e.p))
	}

	start := len(dst)
	for _, pk := range x.picks {
		var err error
		dst, err = e.applyRule(x, dst, start, pk.sc, pk.rule, op)
		if err != nil && specErr == nil {
			specErr = err
		}
	}
	return dst, specErr
}

// splitGuard refines scenario sc until the rule's guard is decided,
// recording the scenarios in which it holds as picks and those in which it
// does not for the next rule of the cascade.
func (e *Engine) splitGuard(x *scratch, sc *scenario, tab *ruleTab) {
	g := tab.rule.Guard
	switch g.Kind {
	case fsm.GuardAlways:
		x.match(sc, tab)
	case fsm.GuardAnyOther, fsm.GuardNoOther:
		exists, scenariosTrue, scenarioFalse := e.splitExists(x, sc, tab)
		if g.Kind == fsm.GuardAnyOther {
			switch exists {
			case condTrue:
				x.match(sc, tab)
			case condFalse:
				x.miss(scenarioFalse)
			default:
				for _, t := range scenariosTrue {
					x.match(t, tab)
				}
				x.miss(scenarioFalse)
			}
			return
		}
		// NoOther
		switch exists {
		case condTrue:
			x.miss(sc)
		case condFalse:
			x.match(scenarioFalse, tab)
		default:
			x.match(scenarioFalse, tab)
			for _, t := range scenariosTrue {
				x.miss(t)
			}
		}
	default:
		x.miss(sc)
	}
}

type cond int

const (
	condTrue cond = iota
	condFalse
	condAmbiguous
)

// splitExists decides "∃ another cache in one of the states". When the
// answer is ambiguous it returns refined scenarios: one per star class in
// the set pinned non-empty (their union covers the ∃ case) and one with all
// of them pinned empty (the ∄ case). Infeasible refinements are dropped.
// In the definite-false cases the returned false scenario has the set's
// star classes zeroed out (they are provably empty), so downstream rules do
// not mistake ghost classes for populated ones. The returned true
// scenarios alias x's buffer and are valid until the next call.
func (e *Engine) splitExists(x *scratch, sc *scenario, tab *ruleTab) (cond, []*scenario, *scenario) {
	// Fast path: when the tested set is exactly the valid-copy set and the
	// copy count is tracked, the bound decides existence outright.
	if tab.guardIsValidSet && sc.othersIval.lo >= 1 {
		return condTrue, nil, nil
	}
	if tab.guardIsValidSet && sc.othersIval.hi == 0 {
		return condFalse, nil, e.zeroSet(x, sc, tab)
	}

	x.stars = x.stars[:0]
	for _, i := range tab.guardIdxs {
		switch sc.rem[i] {
		case ROne, RPlus:
			return condTrue, nil, nil
		case RStar:
			x.stars = append(x.stars, i)
		}
	}
	if len(x.stars) == 0 {
		return condFalse, nil, sc
	}
	x.trues = x.trues[:0]
	for _, i := range x.stars {
		t := x.clone(sc)
		t.rem[i] = RPlus
		if e.propagate(t) {
			x.trues = append(x.trues, t)
		}
	}
	falseSc := e.zeroSet(x, sc, tab)
	if len(x.trues) == 0 {
		if falseSc == nil {
			return condFalse, nil, sc // cannot happen for a normalized state
		}
		return condFalse, nil, falseSc
	}
	if falseSc == nil {
		// All-empty is infeasible: existence is certain.
		return condTrue, nil, nil
	}
	return condAmbiguous, x.trues, falseSc
}

// zeroSet returns a copy of sc with the guard set's star classes pinned
// empty, or nil when that is infeasible.
func (e *Engine) zeroSet(x *scratch, sc *scenario, tab *ruleTab) *scenario {
	f := x.clone(sc)
	for _, i := range tab.guardIdxs {
		if f.rem[i] == RStar {
			f.rem[i] = RZero
		}
	}
	if !e.propagate(f) {
		return nil
	}
	return f
}

// applyRule performs the transition on a guard-resolved scenario, branching
// over supplier choice and over copy-count ambiguity, and appends the
// successors to dst (dst[start:] are the event's earlier ones).
func (e *Engine) applyRule(x *scratch, dst []Succ, start int, sc *scenario, tab *ruleTab, op fsm.Op) ([]Succ, error) {
	rule := tab.rule
	if rule.Data.Source != fsm.SrcCache {
		return e.applySupplied(x, dst, start, sc, tab, op, DNone), nil
	}
	// Resolve the data supplier: one branch per class that can supply.
	supplied := false
	for _, i := range tab.suppliers {
		if !sc.rem[i].CanBePositive() {
			continue
		}
		t := x.clone(sc)
		if t.rem[i] == RStar {
			t.rem[i] = RPlus
		}
		if !e.propagate(t) {
			continue
		}
		supplied = true
		dst = e.applySupplied(x, dst, start, t, tab, op, t.cdata[i])
	}
	if !supplied {
		return dst, fmt.Errorf("symbolic: protocol %s: rule %s fired with no possible supplier in %v",
			e.p.Name, rule.Name, rule.Data.Suppliers)
	}
	return dst, nil
}

func (e *Engine) applySupplied(x *scratch, dst []Succ, start int, sc *scenario, tab *ruleTab, op fsm.Op, supplierData Data) []Succ {
	rule := tab.rule
	// 1. Originator's incoming data and supplier write-back.
	var origVal Data
	newMdata := sc.mdata
	switch rule.Data.Source {
	case fsm.SrcNone:
		origVal = DNone
	case fsm.SrcKeep:
		origVal = sc.origData
	case fsm.SrcMemory:
		origVal = sc.mdata
	case fsm.SrcCache:
		origVal = supplierData
		if rule.Data.SupplierWriteBack {
			newMdata = supplierData
		}
	}

	// 2+3. Coincident transitions — pool every remaining class into its
	// observed target (aggregation rules) — fused with the abstract
	// copy-count arithmetic over the other caches.
	x.vectors(e.n)
	newReps, newData, hasContrib := x.reps, x.data, x.contrib
	survivors := ival{0, 0}
	gained := ival{0, 0}
	allValidSurvive := true
	for c := 0; c < e.n; c++ {
		if sc.rem[c] == RZero {
			continue
		}
		t := tab.obs[c]
		newReps[t] = merge(newReps[t], sc.rem[c])
		contributes := e.valid[t]
		d := DNone
		if contributes {
			d = sc.cdata[c]
		}
		if hasContrib[t] {
			newData[t] = mergeData(newData[t], d)
		} else {
			newData[t] = d
			hasContrib[t] = true
		}
		r := ival{sc.rem[c].Min(), sc.rem[c].Max()}
		switch {
		case e.valid[c] && contributes:
			survivors = survivors.add(r)
		case e.valid[c] && !contributes:
			allValidSurvive = false
		case !e.valid[c] && contributes:
			gained = gained.add(r)
		}
	}
	var othersAfter ival
	var ok bool
	if allValidSurvive {
		othersAfter, ok = survivors.intersect(sc.othersIval)
	} else {
		othersAfter, ok = survivors.intersect(ival{0, sc.othersIval.hi})
	}
	if !ok {
		return dst
	}
	othersAfter = othersAfter.add(gained)

	// 4. Store semantics on the context variables.
	if rule.Data.Store {
		for t := 0; t < e.n; t++ {
			newData[t] = downgrade(newData[t])
		}
		newMdata = downgrade(newMdata)
		origVal = DFresh
		if rule.Data.WriteThrough {
			newMdata = DFresh
		}
		if rule.Data.UpdateSharers {
			for t := 0; t < e.n; t++ {
				if e.valid[t] && newReps[t] != RZero {
					newData[t] = DFresh
				}
			}
		}
	}

	// 5. Self write-back and drop.
	if rule.Data.WriteBackSelf {
		newMdata = origVal
	}
	if rule.Data.DropSelf {
		origVal = DNone
	}

	// 6. Re-insert the originator into its next class.
	ni := tab.next
	newReps[ni] = addOne(newReps[ni])
	d := DNone
	if e.valid[ni] {
		d = origVal
	}
	if hasContrib[ni] {
		newData[ni] = mergeData(newData[ni], d)
	} else {
		newData[ni] = d
		hasContrib[ni] = true
	}

	total := othersAfter
	if e.valid[ni] {
		total = total.add(ival{1, 1})
	}

	// 7. Classify the new copy count and emit one successor per feasible
	// classification. A branch that decreases the classification below the
	// maximum corresponds to the paper's N-steps rule 4(b) (the same event
	// applied repeatedly until the characteristic function changes) and is
	// tagged NStep.
	origin := e.p.States[sc.origIdx]
	if e.p.Characteristic != fsm.CharSharing {
		return e.emit(x, dst, start, CountNull, newMdata, Label{Op: op, Origin: origin}, rule)
	}
	x.counts = total.appendCounts(x.counts[:0])
	var maxCount Count
	for _, c := range x.counts {
		if c > maxCount {
			maxCount = c
		}
	}
	for _, cnt := range x.counts {
		label := Label{Op: op, Origin: origin, NStep: len(x.counts) > 1 && cnt != maxCount}
		dst = e.emit(x, dst, start, cnt, newMdata, label, rule)
	}
	return dst
}

// emit canonicalizes a copy of the pooled successor vectors under copy
// count attr and appends the resulting state to dst, unless it is
// infeasible or equals (state and N-step tag) one of the event's earlier
// successors dst[start:]. A state whose key x.recs has interned is reused;
// only a state never seen before is allocated.
func (e *Engine) emit(x *scratch, dst []Succ, start int, attr Count, mdata Data, label Label, rule *fsm.Rule) []Succ {
	copy(x.r2, x.reps)
	copy(x.d2, x.data)
	if !e.canonicalize(x.r2, x.d2, attr) {
		return dst
	}
	x.key = appendKey(x.key[:0], x.r2, x.d2, attr, mdata)
	for _, su := range dst[start:] {
		if su.Label.NStep == label.NStep && su.State.key == string(x.key) {
			return dst
		}
	}
	if r := x.recs[string(x.key)]; r != nil && r.state != nil {
		return append(dst, Succ{Label: label, Rule: rule, State: r.state})
	}
	return append(dst, Succ{Label: label, Rule: rule, State: stateFromKey(string(x.key))})
}

// normalize canonicalizes a candidate composite state (see canonicalize)
// and builds it. It reports false when the combination is infeasible. The
// slices are owned by the caller and may be modified.
func (e *Engine) normalize(reps []Rep, cdata []Data, attr Count, mdata Data) (*CState, bool) {
	if !e.canonicalize(reps, cdata, attr) {
		return nil, false
	}
	return newCState(reps, cdata, attr, mdata), true
}

// canonicalize rewrites candidate component vectors in place against their
// copy-count attribute (pinning singletons, collapsing impossible star
// classes) and scrubs the context variables of empty and invalid classes.
// It reports false when the combination is infeasible.
func (e *Engine) canonicalize(reps []Rep, cdata []Data, attr Count) bool {
	if attr != CountNull {
		bound := attr.interval()
		if attr == CountZero {
			for _, i := range e.validIdxs {
				switch reps[i] {
				case ROne, RPlus:
					return false
				case RStar:
					reps[i] = RZero
				}
			}
		}
		min, max := 0, 0
		nonZero := -1
		multi := false
		for _, i := range e.validIdxs {
			min += reps[i].Min()
			max += reps[i].Max()
			if reps[i] != RZero {
				if nonZero >= 0 {
					multi = true
				}
				nonZero = i
			}
		}
		if satur(min) > bound.hi || satur(max) < bound.lo {
			return false
		}
		if attr == CountOne && min == 1 {
			// The definite instances already account for the single copy:
			// stars must be empty and plus classes are singletons.
			for _, i := range e.validIdxs {
				switch reps[i] {
				case RStar:
					reps[i] = RZero
				case RPlus:
					reps[i] = ROne
				}
			}
		}
		if nonZero >= 0 && !multi {
			// A single populated valid class: pin its operator to the
			// tightest form compatible with the copy count.
			switch attr {
			case CountOne:
				reps[nonZero] = ROne
			case CountMany:
				if reps[nonZero] == ROne {
					return false
				}
				reps[nonZero] = RPlus
			}
		}
	}
	for i := 0; i < e.n; i++ {
		if reps[i] == RZero || !e.valid[i] {
			cdata[i] = DNone
		}
	}
	return true
}
