package symbolic

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/fsm"
	"repro/internal/obs"
	"repro/internal/runctl"
)

// Options tune the Expand run. Run control (budgets, checkpoint cadence,
// observability) lives in the embedded runctl.RunConfig, shared with
// enum.Options:
//
//	symbolic.Options{RunConfig: runctl.RunConfig{Budget: b, Metrics: reg}}
//
// The budgets are checked at worklist-item boundaries, so a stopped run
// ends between expansions and its partial Result (and checkpoint) covers
// whole expansion steps only; the exact MaxVisits cap, by contrast, may
// stop mid-step. RunConfig.Workers > 1 selects the parallel speculation
// driver (see Engine.Run).
type Options struct {
	runctl.RunConfig

	// MaxVisits bounds the number of generated successor states as a
	// safety net against ill-formed protocols; 0 means the default (100000).
	// RunConfig.Budget.MaxStates, when set, additionally bounds the number
	// of distinct composite states generated, checked at worklist
	// boundaries.
	MaxVisits int
	// RecordLog keeps the full visit log (the Appendix A.2 listing).
	RecordLog bool
	// StopOnViolation aborts the expansion at the first erroneous state;
	// otherwise the expansion continues and collects every violation.
	StopOnViolation bool
	// Strict enables the CleanShared memory-consistency extension check.
	Strict bool
	// NoContainment is an ABLATION switch: it disables the containment
	// pruning of Definition 9 and deduplicates states by identity only.
	// The expansion still terminates (the composite state space is finite)
	// and still finds every violation, but the history list holds all
	// distinct reachable composite states instead of just the essential
	// ones — quantifying what the paper's pruning buys.
	NoContainment bool

	// OnCheckpoint receives the periodic snapshots requested by
	// RunConfig.CheckpointEvery; a non-nil return aborts the run with that
	// error. It stays outside RunConfig because the checkpoint type is
	// engine-specific.
	OnCheckpoint func(*Checkpoint) error

	// Resume, when set, continues the interrupted expansion this
	// checkpoint captured. Strict and NoContainment come from the
	// checkpoint; budgets and the checkpoint options still come from these
	// Options.
	Resume *Checkpoint
}

const defaultMaxVisits = 100000

// Outcome classifies what happened to a generated successor state.
type Outcome int

const (
	// OutcomeNew: the state entered the working list.
	OutcomeNew Outcome = iota
	// OutcomeContained: the state was discarded because an existing state
	// contains it.
	OutcomeContained
	// OutcomeSupersedes: the state entered the working list and evicted one
	// or more contained states.
	OutcomeSupersedes
)

func (o Outcome) String() string {
	switch o {
	case OutcomeNew:
		return "new"
	case OutcomeContained:
		return "contained"
	case OutcomeSupersedes:
		return "supersedes"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// VisitRecord is one line of the expansion log, corresponding to one line of
// the paper's Appendix A.2: a source state, a transition label, the
// generated state and how the algorithm disposed of it.
type VisitRecord struct {
	From    *CState
	Label   Label
	Rule    string
	To      *CState
	Outcome Outcome
}

// PathStep is one hop of a witness path from the initial state.
type PathStep struct {
	Label Label
	To    *CState
}

// StateViolation pairs an erroneous state (Definition 3 and the
// compatibility conditions of Section 2.1) with its violations and a witness
// path from the initial state.
type StateViolation struct {
	State      *CState
	Violations []fsm.Violation
	Path       []PathStep
}

// Result is the outcome of a symbolic expansion run.
type Result struct {
	// Protocol is the verified protocol.
	Protocol *fsm.Protocol
	// Essential is the final history list H of Figure 3: the essential
	// states of Definition 10, in canonical (discovery, then key) order.
	Essential []*CState
	// Visits counts every generated successor state, the paper's "state
	// visits" metric (22 for Illinois).
	Visits int
	// Expansions counts worklist states that were fully expanded.
	Expansions int
	// Superseded counts worklist states discarded because a successor
	// contained them (the "discard A and start a new run" branch).
	Superseded int
	// Contained counts generated states discarded without expansion: by
	// ⊆_F containment (Definition 9), or by identity dedup in the
	// NoContainment ablation. Like Log, it is not preserved across
	// checkpoint/resume (a resumed run counts from the resume point).
	Contained int
	// Evicted counts list states removed by containment pruning because a
	// later state contained them. Not preserved across checkpoint/resume.
	Evicted int
	// Log is the visit log when Options.RecordLog was set. It is not
	// preserved across checkpoint/resume.
	Log []VisitRecord
	// Violations lists every erroneous state found, with witnesses.
	Violations []StateViolation
	// SpecErrors lists specification-level problems (incomplete guard
	// cascades, missing suppliers); non-empty SpecErrors mean the protocol
	// definition itself is broken.
	SpecErrors []error
	// Truncated reports that the run stopped before the working list
	// emptied; StopReason carries the structured cause.
	Truncated bool
	// StopReason is nil for a complete run; otherwise it matches one of
	// the runctl sentinels (ErrCanceled, ErrDeadline, ErrStateBudget,
	// ErrMemBudget) via errors.Is.
	StopReason error
	// Checkpoint is a resumable snapshot of the interrupted run, present
	// when Options.CheckpointOnStop was set and the stop happened at a
	// worklist boundary (the exact MaxVisits cap stops mid-step and is
	// not checkpointable).
	Checkpoint *Checkpoint
	// EstBytes is the run's final estimated resident footprint, the value
	// the memory budget was enforced against (see cstateBytes).
	EstBytes int64
	// WorkerErrors records panics recovered in parallel speculation
	// workers. The affected states were re-expanded inline, so the
	// results are unaffected; the entries exist for diagnosis.
	WorkerErrors []*WorkerError
}

// OK reports whether the protocol verified cleanly: no erroneous states and
// no specification errors.
func (r *Result) OK() bool { return len(r.Violations) == 0 && len(r.SpecErrors) == 0 }

// parentInfo supports witness reconstruction.
type parentInfo struct {
	parent *CState
	label  Label
}

// Expand runs the essential-states generation algorithm of Figure 3 from the
// protocol's initial composite state.
func Expand(p *fsm.Protocol, opts Options) (*Result, error) {
	e, err := NewEngine(p)
	if err != nil {
		return nil, err
	}
	return e.Run(context.Background(), opts)
}

// Expand runs the essential-states generation algorithm of Figure 3; it is
// Run without a context, for callers that set neither Resume nor a
// failing OnCheckpoint (the only error sources).
func (e *Engine) Expand(opts Options) *Result {
	res, _ := e.Run(context.Background(), opts)
	return res
}

// Run is the one entry point of the symbolic engine: the Figure 3
// expansion, started from the initial composite state or continued from
// opts.Resume. Cancellation, deadlines and the budgets stop the run at the
// next worklist item, returning the partial Result with a structured
// StopReason. The only error conditions are an invalid checkpoint and a
// failing OnCheckpoint sink.
//
// RunConfig.Workers > 1 selects the parallel speculation pipeline with
// that many workers; otherwise the sequential loop runs. Both drivers
// produce bit-identical Results and checkpoints, and either resumes the
// other's.
func (e *Engine) Run(ctx context.Context, opts Options) (*Result, error) {
	var x *expander
	if opts.Resume != nil {
		var err error
		if x, err = e.resumeExpander(opts); err != nil {
			return nil, err
		}
	} else if x = e.startExpander(opts); x.done {
		return x.res, nil
	}
	if opts.Workers > 1 {
		return x.runPar(ctx, opts.Workers)
	}
	return x.run(ctx)
}

// expander is the resumable state of one Figure 3 run: the working list W,
// the history list H, and the bookkeeping maps. It is built fresh by
// startExpander and rebuilt from a Checkpoint by resumeExpander, so an
// interrupted-then-resumed run walks exactly the states an uninterrupted
// run would.
type expander struct {
	e         *Engine
	opts      Options
	orun      *obs.Run // nil when unobserved: the allocation-free fast path
	maxVisits int
	// done reports that the run ended at the initial state
	// (initial-state violation under StopOnViolation).
	done bool

	work     []*CState
	hist     []*CState
	parents  map[string]parentInfo
	reported map[string]bool
	seenKeys map[string]struct{}
	sinceCp  int
	// workIx and histIx are the containment indexes over work and hist,
	// nil in the NoContainment ablation (identity dedup never queries
	// containment). The ordered slices stay the source of truth; every
	// mutation goes through the push/pop/prune helpers so slices, indexes
	// and the incremental byte estimate cannot drift.
	workIx *cindex
	histIx *cindex
	// listBytes is the running cstateBytes total of work + hist.
	listBytes int64

	res *Result
}

func newExpander(e *Engine, opts Options) *expander {
	maxVisits := opts.MaxVisits
	if maxVisits <= 0 {
		maxVisits = defaultMaxVisits
	}
	x := &expander{
		e: e, opts: opts, maxVisits: maxVisits,
		orun:     opts.Sink().Run("symbolic", e.p.Name),
		parents:  map[string]parentInfo{},
		reported: map[string]bool{},
		seenKeys: map[string]struct{}{},
		res:      &Result{Protocol: e.p},
	}
	if !opts.NoContainment {
		x.workIx = newCIndex()
		x.histIx = newCIndex()
	}
	return x
}

// startExpander builds a fresh expander seeded with the initial state.
// Its done flag reports that the run already ended (initial-state
// violation under StopOnViolation).
func (e *Engine) startExpander(opts Options) *expander {
	x := newExpander(e, opts)
	init := e.Initial()
	x.parents[init.Key()] = parentInfo{}
	x.seenKeys[init.Key()] = struct{}{}
	if v := e.Check(init, opts.Strict); len(v) > 0 {
		x.res.Violations = append(x.res.Violations, StateViolation{State: init, Violations: v})
		x.orun.Event(obs.MetricViolations, 1)
		if opts.StopOnViolation {
			x.done = true
			return x
		}
	}
	x.pushWork(init)
	return x
}

// cstateBytes estimates the resident cost of one composite state: its two
// component slices, its key (held twice: in the state and as a map key),
// the bitmask summaries and the bookkeeping map entries. The constant is
// pinned against measured heap growth by TestCStateBytesEstimate.
func cstateBytes(s *CState) int64 {
	return int64(2*len(s.reps) + 2*len(s.key) + 176)
}

// estBytes estimates the run's footprint from the worklist, the history and
// the parent map. Computed from state sizes, not the allocator, so it is
// deterministic across runs and platforms; the list contribution is
// maintained incrementally by the push/pop/prune helpers.
func (x *expander) estBytes() int64 {
	return x.listBytes + int64(len(x.parents))*64
}

// pushWork appends s to the working list (and its index).
func (x *expander) pushWork(s *CState) {
	x.work = append(x.work, s)
	x.listBytes += cstateBytes(s)
	if x.workIx != nil {
		x.workIx.add(s)
	}
}

// popWork removes and returns the head of the working list.
func (x *expander) popWork() *CState {
	s := x.work[0]
	x.work = x.work[1:]
	x.listBytes -= cstateBytes(s)
	if x.workIx != nil {
		x.workIx.remove(s)
	}
	return s
}

// pushHist appends s to the history list (and its index).
func (x *expander) pushHist(s *CState) {
	x.hist = append(x.hist, s)
	x.listBytes += cstateBytes(s)
	if x.histIx != nil {
		x.histIx.add(s)
	}
}

// inWork / inHist report whether an indexed state contains s.
func (x *expander) inWork(s *CState) bool { return x.workIx.containedInAny(s) }
func (x *expander) inHist(s *CState) bool { return x.histIx.containedInAny(s) }

// prune drops every state of the list that s contains, preserving list
// order, and returns the number of removals. Victims are found through the
// index, so states with incompatible structural signatures are never
// compared and the common no-victim case leaves the slice untouched.
func (x *expander) prune(listp *[]*CState, ix *cindex, s *CState) int {
	victims := ix.collectContained(s, nil)
	if len(victims) == 0 {
		return 0
	}
	drop := make(map[*CState]bool, len(victims))
	for _, t := range victims {
		drop[t] = true
		ix.remove(t)
		x.listBytes -= cstateBytes(t)
	}
	out := (*listp)[:0]
	for _, t := range *listp {
		if drop[t] {
			continue
		}
		out = append(out, t)
	}
	*listp = out
	return len(victims)
}

// stopCheck evaluates the boundary-granularity budgets. Distinct generated
// states (the parent map's size) stand in for the enumerators' state count.
func (x *expander) stopCheck(ctx context.Context) error {
	if err := runctl.FromContext(ctx); err != nil {
		return err
	}
	if err := x.opts.Budget.CheckDeadline(time.Now()); err != nil {
		return err
	}
	if err := x.opts.Budget.CheckStates(len(x.parents)); err != nil {
		return err
	}
	return x.opts.Budget.CheckMem(x.estBytes())
}

// stop finalizes an early stop at a worklist boundary.
func (x *expander) stop(reason error) {
	x.res.StopReason = reason
	x.res.Truncated = true
	x.res.Essential = x.hist
	x.res.EstBytes = x.estBytes()
	if x.opts.CheckpointOnStop {
		x.res.Checkpoint = x.snapshot()
	}
}

func (x *expander) maybeCheckpoint() error {
	if x.opts.OnCheckpoint == nil || x.opts.CheckpointEvery <= 0 || x.sinceCp < x.opts.CheckpointEvery {
		return nil
	}
	x.sinceCp = 0
	x.orun.Event("checkpoints_total", 1)
	return x.opts.OnCheckpoint(x.snapshot())
}

// eventResult is the memoized outcome of one expandEvent call, tagged
// with its (class, op-index) position so processItem can verify the memo
// cursor stays aligned with its own iteration order. viol[j] carries the
// precomputed violation check of succs[j] — Check, like expandEvent, is
// a pure function of the successor state, and hoisting it into the
// speculation phase roughly doubles the parallelizable fraction of an
// expansion (see the profile notes in parallel.go).
type eventResult struct {
	oi, k int
	succs []Succ
	viol  [][]fsm.Violation
	err   error
}

// processItem performs the Figure 3 processing of one popped worklist
// state: expand every applicable (class, operation) event, check each
// successor, and merge it into the working and history lists under
// containment pruning. memo, when non-nil, carries the precomputed
// expandEvent results for a in iteration order (see Engine.expandItem);
// the parallel driver fills it speculatively, the sequential driver
// passes nil and computes inline. expandEvent is a pure function of its
// arguments, so consuming the memo is observationally identical to
// computing inline — which is what keeps the two drivers bit-identical.
// It reports true when the run must return immediately (StopOnViolation),
// with the result already finalized.
func (x *expander) processItem(a *CState, memo []eventResult) bool {
	e, opts, res := x.e, x.opts, x.res
	superseded := false
	cur := 0

expandA:
	for oi := 0; oi < a.NumClasses() && !superseded; oi++ {
		if !a.reps[oi].CanBePositive() {
			continue
		}
		for k, op := range e.p.Ops {
			rules := e.eventTabs[oi][k]
			if len(rules) == 0 {
				continue
			}
			var succs []Succ
			var specErr error
			var viols [][]fsm.Violation
			if cur < len(memo) && memo[cur].oi == oi && memo[cur].k == k {
				succs, specErr, viols = memo[cur].succs, memo[cur].err, memo[cur].viol
				cur++
			} else {
				succs, specErr = e.expandEvent(a, oi, op, rules)
			}
			if specErr != nil {
				res.SpecErrors = append(res.SpecErrors, specErr)
				x.orun.Event("spec_errors_total", 1)
			}
			for j, su := range succs {
				res.Visits++
				ap := su.State
				if _, seen := x.parents[ap.Key()]; !seen {
					x.parents[ap.Key()] = parentInfo{parent: a, label: su.Label}
				}

				// Erroneous-state detection happens before pruning so
				// containment can never hide a violation.
				if !x.reported[ap.Key()] {
					var v []fsm.Violation
					if viols != nil {
						v = viols[j]
					} else {
						v = e.Check(ap, opts.Strict)
					}
					if len(v) > 0 {
						x.reported[ap.Key()] = true
						res.Violations = append(res.Violations, StateViolation{
							State:      ap,
							Violations: v,
							Path:       e.witness(x.parents, ap),
						})
						x.orun.Event(obs.MetricViolations, 1)
						if opts.StopOnViolation {
							res.Essential = append(x.hist, x.work...)
							res.EstBytes = x.estBytes()
							return true
						}
					}
				}

				outcome := OutcomeNew
				switch {
				case opts.NoContainment:
					if _, dup := x.seenKeys[ap.Key()]; dup {
						outcome = OutcomeContained
					} else {
						x.seenKeys[ap.Key()] = struct{}{}
						x.pushWork(ap)
					}
				case Contains(a, ap):
					outcome = OutcomeContained
				case x.inWork(ap) || x.inHist(ap):
					outcome = OutcomeContained
				default:
					if n := x.prune(&x.work, x.workIx, ap); n > 0 {
						res.Evicted += n
						outcome = OutcomeSupersedes
					}
					if n := x.prune(&x.hist, x.histIx, ap); n > 0 {
						res.Evicted += n
						outcome = OutcomeSupersedes
					}
					x.pushWork(ap)
					if Contains(ap, a) {
						// "discard A and terminate all FOR loops
						// starting a new run."
						superseded = true
						res.Superseded++
					}
				}
				if outcome == OutcomeContained {
					res.Contained++
				}
				if opts.RecordLog {
					res.Log = append(res.Log, VisitRecord{
						From: a, Label: su.Label, Rule: su.Rule.Name,
						To: ap, Outcome: outcome,
					})
				}
				if res.Visits >= x.maxVisits {
					break expandA
				}
				if superseded {
					break expandA
				}
			}
		}
	}
	if !superseded {
		res.Expansions++
		if opts.NoContainment {
			x.pushHist(a)
		} else if !x.inHist(a) && !x.inWork(a) {
			x.pushHist(a)
		}
	}
	x.sinceCp++
	// One "level" of the worklist algorithm is one fully processed
	// item; counts are cumulative (obs.Run turns them into deltas).
	x.orun.Level(obs.LevelStats{
		Level:      res.Expansions + res.Superseded - 1,
		Frontier:   len(x.work),
		Essential:  len(x.hist),
		Visits:     res.Visits,
		Pruned:     res.Contained,
		Superseded: res.Superseded,
		EstBytes:   x.estBytes(),
	})
	return false
}

// finishRun finalizes the result after the main loop drained (or the
// exact MaxVisits cap tripped mid-step).
func (x *expander) finishRun() {
	x.res.Essential = x.hist
	x.res.EstBytes = x.estBytes()
	if len(x.work) > 0 {
		// The exact MaxVisits cap tripped mid-expansion; no checkpoint for
		// mid-step stops.
		x.res.Truncated = true
		x.res.StopReason = runctl.ErrStateBudget
	}
}

// run drives the Figure 3 loop over the expander state, sequentially.
func (x *expander) run(ctx context.Context) (*Result, error) {
	sp := x.orun.Phase(obs.PhaseExpand)
	defer sp.End()
	for len(x.work) > 0 && x.res.Visits < x.maxVisits {
		if err := x.stopCheck(ctx); err != nil {
			x.stop(err)
			return x.res, nil
		}
		if err := x.maybeCheckpoint(); err != nil {
			return nil, err
		}
		if x.processItem(x.popWork(), nil) {
			return x.res, nil
		}
	}
	x.finishRun()
	return x.res, nil
}

// containedInAny is the reference linear scan, used by the index for
// unmasked states and within candidate buckets.
func containedInAny(s *CState, list []*CState) bool {
	for _, t := range list {
		if Contains(t, s) {
			return true
		}
	}
	return false
}

// witness reconstructs a path from the initial state to s using the parent
// map populated during expansion.
func (e *Engine) witness(parents map[string]parentInfo, s *CState) []PathStep {
	var rev []PathStep
	cur := s
	for {
		pi, ok := parents[cur.Key()]
		if !ok || pi.parent == nil {
			break
		}
		rev = append(rev, PathStep{Label: pi.label, To: cur})
		cur = pi.parent
		if len(rev) > 10000 {
			break // defensive: parent chains are acyclic by construction
		}
	}
	// Reverse.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// SortStates orders composite states deterministically: by decreasing
// "generality" (number of star/plus classes) and then by key. Reports and
// tests use this to present essential states stably.
func SortStates(states []*CState) []*CState {
	out := append([]*CState(nil), states...)
	gen := func(s *CState) int {
		g := 0
		for _, r := range s.reps {
			if r == RStar || r == RPlus {
				g++
			}
		}
		return g
	}
	sort.SliceStable(out, func(i, j int) bool {
		gi, gj := gen(out[i]), gen(out[j])
		if gi != gj {
			return gi > gj
		}
		return out[i].Key() < out[j].Key()
	})
	return out
}
