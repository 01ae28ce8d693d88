package enum

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/fsm"
	"repro/internal/obs"
	"repro/internal/runctl"
	"repro/internal/stateset"
)

// Canonical data markers. Explicit-state enumeration would not terminate
// over ever-growing store version numbers, so after every step the versions
// are renamed onto the paper's abstract data domain: the latest version
// becomes canonFresh, every older version becomes canonObsolete, and
// fsm.NoData is kept. This is exactly the context-variable domain of
// Definition 4 and preserves the stale-read check (version == Latest).
const (
	canonFresh    int64 = 0
	canonObsolete int64 = -2
)

// Canonicalize rewrites the configuration's versions onto the abstract data
// domain, in place. Afterwards c.Latest == canonFresh.
func Canonicalize(c *fsm.Config) {
	ren := func(v int64) int64 {
		switch {
		case v == fsm.NoData:
			return fsm.NoData
		case v == c.Latest:
			return canonFresh
		default:
			return canonObsolete
		}
	}
	for i := range c.Versions {
		c.Versions[i] = ren(c.Versions[i])
	}
	c.MemVersion = ren(c.MemVersion)
	c.Latest = canonFresh
}

// Options tune an enumeration run. Run control (budgets, checkpoint
// cadence, parallelism defaults, observability) lives in the embedded
// runctl.RunConfig, shared with symbolic.Options:
//
//	enum.Options{RunConfig: runctl.RunConfig{Budget: b, Metrics: reg}}
//
// Cancellation, the deadline and the memory budget are checked between
// BFS levels, at every worker count, so a stopped run always ends at a
// clean level boundary and its partial Result (and checkpoint) covers
// whole levels only.
type Options struct {
	runctl.RunConfig

	// MaxStates bounds the number of distinct states explored (0: 5_000_000).
	// RunConfig.Budget.MaxStates, when set, takes precedence. Unlike the
	// other budgets, the state cap is enforced per admitted state, so
	// Unique never exceeds it; a run stopped this way carries no
	// checkpoint.
	MaxStates int
	// KeepReachable retains every distinct canonical configuration in the
	// result, for cross-validation against the symbolic essential states.
	KeepReachable bool
	// Strict enables the CleanShared extension check.
	Strict bool
	// StopOnViolation aborts at the first erroneous state.
	StopOnViolation bool

	// OnCheckpoint receives the periodic snapshots requested by
	// RunConfig.CheckpointEvery, taken at the first level boundary after
	// at least that many frontier states were expanded since the last
	// one; a non-nil return aborts the run with that error. It stays outside RunConfig
	// because the checkpoint type is engine-specific.
	OnCheckpoint func(*Checkpoint) error

	// Mode selects the equivalence: ModeStrict (Figure 2) or ModeCounting
	// (Definition 5). The zero value means strict.
	Mode string
	// Resume, when set, continues the interrupted run this checkpoint
	// captured. The cache count, mode and strictness come from the
	// checkpoint; a non-zero n or a non-empty Mode that differs from it is
	// an error. Budgets, KeepReachable and the checkpoint options still
	// come from these Options.
	Resume *Checkpoint
}

const defaultMaxStates = 5000000

// PathStep is one hop of a concrete witness path.
type PathStep struct {
	Cache int
	Op    fsm.Op
	To    string // canonical key of the state reached
}

// Violation pairs an erroneous concrete state with its violations and a
// witness path from the initial configuration.
type Violation struct {
	Config     *fsm.Config
	Violations []fsm.Violation
	Path       []PathStep
}

// Result reports an enumeration run.
type Result struct {
	// Protocol and N identify the run.
	Protocol *fsm.Protocol
	N        int
	// Unique counts distinct states explored under the run's equivalence
	// (strict tuples for Exhaustive, multisets for Counting).
	Unique int
	// Visits counts generated successor states, the metric of Section 3.1
	// (≈ n·k·mⁿ for exhaustive search without pruning of redundant visits).
	Visits int
	// TupleStates counts the distinct state-only tuples (ignoring data)
	// among the explored states.
	TupleStates int
	// Violations lists erroneous states found.
	Violations []Violation
	// SpecErrors records protocol-definition-level failures.
	SpecErrors []error
	// Reachable holds every distinct configuration when KeepReachable was
	// set, in discovery order.
	Reachable []*fsm.Config
	// Truncated reports that the run stopped before the frontier emptied.
	// StopReason carries the structured cause.
	Truncated bool
	// StopReason is nil for a complete run; otherwise it matches one of
	// the runctl sentinels (ErrCanceled, ErrDeadline, ErrStateBudget,
	// ErrMemBudget) via errors.Is.
	StopReason error
	// Checkpoint is a resumable snapshot of the interrupted run, present
	// when Options.CheckpointOnStop was set and the stop happened at a
	// level boundary (cancellation, deadline or memory budget; the exact
	// state cap stops mid-level and is not checkpointable).
	Checkpoint *Checkpoint
	// EstBytes is the run's final estimated resident footprint, the value
	// the memory budget was enforced against (see stateBytes).
	EstBytes int64
	// WorkerErrors records panics recovered in BFS level workers. The
	// affected frontier slices were re-expanded on the calling goroutine,
	// so unless a matching SpecError reports a persistent panic the
	// results are unaffected.
	WorkerErrors []*WorkerError
}

// OK reports whether the protocol verified cleanly at this cache count.
func (r *Result) OK() bool { return len(r.Violations) == 0 && len(r.SpecErrors) == 0 }

// strictKey is the string identity of a configuration up to strict
// equality (Section 3.1). The engine keys states by the packed bytes of
// key.go instead; the string forms are the reference implementation the
// packed keys are property-tested against and the format they render to.
func strictKey(c *fsm.Config) string { return c.Key() }

// countingKey identifies configurations up to cache permutation
// (Definition 5, counting equivalence), extended with the per-cache data
// class so the data-consistency attributes survive the quotient.
func countingKey(c *fsm.Config) string {
	pairs := make([]string, len(c.States))
	for i, s := range c.States {
		pairs[i] = fmt.Sprintf("%s:%d", s, c.Versions[i])
	}
	sort.Strings(pairs)
	return strings.Join(pairs, ",") + fmt.Sprintf("|m:%d", c.MemVersion)
}

// CanonicalKey renders the canonical string identity of a canonicalized
// configuration under the given mode, in the exact format checkpoints and
// witness paths store (PathStep.To). It is computed by the string
// reference implementation — not the packed key codec — so an
// independent auditor (internal/campaign) replaying a witness through
// fsm.Step can match claimed keys without trusting the engine's packed
// encoding.
func CanonicalKey(c *fsm.Config, mode string) (string, error) {
	if err := validMode(mode); err != nil {
		return "", err
	}
	if mode == ModeCounting {
		return countingKey(c), nil
	}
	return strictKey(c), nil
}

// Enumeration modes, recorded in checkpoints so a resumed run re-selects
// the equivalence of the interrupted one.
const (
	ModeStrict   = "strict"
	ModeCounting = "counting"
)

func validMode(mode string) error {
	if mode != ModeStrict && mode != ModeCounting {
		return fmt.Errorf("enum: unknown mode %q", mode)
	}
	return nil
}

// Run is the one entry point of the explicit-state engine: a
// breadth-first exploration of the global states for n caches under
// opts.Mode, started fresh or continued from opts.Resume. Cancellation,
// the context deadline and the budgets stop the run at a clean boundary,
// returning the partial Result with a structured StopReason.
//
// RunConfig.Workers sets how many workers expand each BFS level (≤ 1
// means one). The Result and checkpoints are bit-identical at every
// worker count, and a checkpoint resumes at any worker count.
func Run(ctx context.Context, p *fsm.Protocol, n int, opts Options) (*Result, error) {
	var b *bfs
	var frontier *frontier
	var err error
	if opts.Resume != nil {
		b, frontier, err = resumeBFS(p, n, opts)
	} else {
		b, frontier, err = startBFS(p, n, opts)
	}
	if err != nil {
		return nil, err
	}
	if frontier == nil {
		return b.res, nil // ended at the initial state
	}
	return b.run(ctx, frontier, max(opts.Workers, 1))
}

// Exhaustive runs the paper's Figure 2 algorithm: breadth-first exploration
// of all strict global states for n caches.
func Exhaustive(p *fsm.Protocol, n int, opts Options) (*Result, error) {
	opts.Mode = ModeStrict
	return Run(context.Background(), p, n, opts)
}

// Counting runs the same exploration under counting equivalence
// (Definition 5): permutations of a tuple collapse into one state, and
// symmetric caches are expanded only once.
func Counting(p *fsm.Protocol, n int, opts Options) (*Result, error) {
	opts.Mode = ModeCounting
	return Run(context.Background(), p, n, opts)
}

// bfs is the state of one enumeration run, built fresh by startBFS or
// rebuilt from a Checkpoint by resumeBFS.
type bfs struct {
	p         *fsm.Protocol
	n         int
	opts      Options
	orun      *obs.Run // nil when unobserved: the allocation-free fast path
	kc        *keyCodec
	mode      string
	maxStates int

	// visited holds the keys of the admitted states and tuples their
	// state-only tuples; a state's rank in visited is its admission
	// order. parents is the rank-indexed provenance: parents[r] records
	// how the state admitted at rank r was first reached. opIx maps
	// operations to their Protocol.Ops index for the uint8 op field.
	visited *stateset.Set
	tuples  *stateset.Set
	parents []parentRec
	opIx    map[fsm.Op]uint8
	// tuple is the reconcile's scratch for tuple keys.
	tuple []byte

	// frontierLen is the current worklist length, maintained by the run
	// loop for the footprint estimate.
	frontierLen int
	bytes       int64 // estimated worklist+visited footprint (estBytes)

	// spill is the out-of-core state, nil for in-memory runs (spill.go).
	spill *spillState

	// work holds the level workers' buffers, reused across levels.
	work []levelWork

	// sinceCp counts expanded states since the last periodic checkpoint.
	sinceCp int

	res *Result
}

// frontier is a BFS level: the representatives of its states (key.go),
// w bytes each in admission order, and their admission ranks, which the
// provenance records of their successors cite.
type frontier struct {
	reps  []byte
	ranks []uint32
}

func (f *frontier) len() int { return len(f.ranks) }

func (f *frontier) push(rep []byte, rank uint32) {
	f.reps = append(f.reps, rep...)
	f.ranks = append(f.ranks, rank)
}

// frontierBytes estimates the resident cost of one frontier state: its
// w-byte representative and its 4-byte rank. TestStateBytesEstimate pins
// it against measured heap growth, with the store estimates it is summed
// with in estBytes.
func frontierBytes(w int) int64 { return int64(w + 4) }

// estBytes estimates the run's resident footprint: the visited and tuple
// sets, the provenance records and the frontier.
func (b *bfs) estBytes() int64 {
	return b.visited.Bytes() + b.tuples.Bytes() +
		int64(cap(b.parents))*parentRecBytes +
		int64(b.frontierLen)*frontierBytes(b.kc.w)
}

// newBFS validates the inputs and builds the empty run state shared by
// fresh and resumed runs.
func newBFS(p *fsm.Protocol, n int, mode string, opts Options) (*bfs, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("enum: need at least one cache, got %d", n)
	}
	if err := validMode(mode); err != nil {
		return nil, err
	}
	if n > 1<<16-1 {
		return nil, fmt.Errorf("enum: cache count %d exceeds the provenance-record limit %d", n, 1<<16-1)
	}
	maxStates := opts.Budget.MaxStates
	if maxStates <= 0 {
		maxStates = opts.MaxStates
	}
	if maxStates <= 0 {
		maxStates = defaultMaxStates
	}
	opIx, err := buildOpIndex(p)
	if err != nil {
		return nil, err
	}
	kc, err := newKeyCodec(p, n, mode)
	if err != nil {
		return nil, err
	}
	return &bfs{
		p: p, n: n, opts: opts, kc: kc, mode: mode,
		orun:      opts.Sink().Run("enum-"+mode, p.Name),
		maxStates: maxStates,
		visited:   stateset.New(kc.w),
		tuples:    stateset.New(kc.w - 1),
		opIx:      opIx,
		res:       &Result{Protocol: p, N: n},
	}, nil
}

// startBFS seeds a fresh run with the initial configuration and returns
// the first frontier, or a nil frontier when the run already ended
// (initial-state violation under StopOnViolation).
func startBFS(p *fsm.Protocol, n int, opts Options) (*bfs, *frontier, error) {
	mode := opts.Mode
	if mode == "" {
		mode = ModeStrict
	}
	b, err := newBFS(p, n, mode, opts)
	if err != nil {
		return nil, nil, err
	}
	init := fsm.NewConfig(p, n)
	Canonicalize(init)
	rep := b.kc.encode(init, nil)
	b.visited.Insert(b.kc.keyOf(rep, nil))
	b.parents = append(b.parents, parentRec{parent: noParent})
	b.tuples.Insert(b.kc.tupleOf(rep, nil))
	b.frontierLen = 1
	b.bytes = b.estBytes()
	if opts.KeepReachable {
		b.res.Reachable = append(b.res.Reachable, init.Clone())
	}
	if v := fsm.CheckConfig(p, init, opts.Strict); len(v) > 0 {
		b.res.Violations = append(b.res.Violations, Violation{Config: init.Clone(), Violations: v})
		b.orun.Event(obs.MetricViolations, 1)
		if opts.StopOnViolation {
			b.finish()
			return b, nil, nil
		}
	}
	f := &frontier{}
	f.push(rep, 0)
	return b, f, nil
}

// stopCheck evaluates the level-boundary budgets: context liveness,
// wall-clock deadline and memory. The state cap is enforced exactly inside
// commit instead.
func (b *bfs) stopCheck(ctx context.Context) error {
	if err := runctl.FromContext(ctx); err != nil {
		return err
	}
	if err := b.opts.Budget.CheckDeadline(time.Now()); err != nil {
		return err
	}
	b.bytes = b.estBytes()
	return b.opts.Budget.CheckMem(b.bytes)
}

// stop finalizes an early stop at a clean boundary: frontier holds the
// states admitted but not yet expanded, so a checkpoint taken here resumes
// to results identical to an uninterrupted run.
func (b *bfs) stop(reason error, frontier *frontier) {
	b.res.StopReason = reason
	b.res.Truncated = true
	b.finish()
	if b.opts.CheckpointOnStop {
		cp, err := b.snapshot(frontier)
		if err != nil {
			b.res.SpecErrors = append(b.res.SpecErrors, fmt.Errorf("enum: capturing stop checkpoint: %w", err))
			return
		}
		b.res.Checkpoint = cp
	}
}

// maybeCheckpoint emits a periodic snapshot when due.
func (b *bfs) maybeCheckpoint(frontier *frontier) error {
	if b.opts.OnCheckpoint == nil || b.opts.CheckpointEvery <= 0 || b.sinceCp < b.opts.CheckpointEvery {
		return nil
	}
	b.sinceCp = 0
	b.orun.Event("checkpoints_total", 1)
	cp, err := b.snapshot(frontier)
	if err != nil {
		return err
	}
	return b.opts.OnCheckpoint(cp)
}

func (b *bfs) finish() {
	b.res.Unique = b.visited.Len()
	b.res.TupleStates = b.tuples.Len()
	b.bytes = b.estBytes()
	b.res.EstBytes = b.bytes
}

// commit installs candidate i of lw, which is new to the visited set:
// provenance, tuple census, violation recording and the exact state cap.
// It appends the admitted state to next and reports true when the run
// must end now (StopOnViolation or state budget).
func (b *bfs) commit(lw *levelWork, i int, next *frontier) bool {
	c, w := &lw.cands[i], b.kc.w
	key, rep := entry(lw.keys, i, w), entry(lw.reps, i, w)
	rank := b.visited.Insert(key)
	b.parents = append(b.parents, parentRec{
		parent: c.parent,
		cache:  uint16(c.cache),
		op:     uint8(c.op),
	})
	if !c.tupleDup {
		if b.tuple = b.kc.tupleOf(rep, b.tuple); !b.tuples.Has(b.tuple) {
			b.tuples.Insert(b.tuple)
		}
	}
	if len(c.viol) > 0 {
		b.res.Violations = append(b.res.Violations, Violation{
			Config:     b.kc.decode(rep),
			Violations: c.viol,
			Path:       b.witness(key, rank),
		})
		b.orun.Event(obs.MetricViolations, 1)
		if b.opts.StopOnViolation {
			b.finish()
			return true
		}
	}
	if b.opts.KeepReachable {
		b.res.Reachable = append(b.res.Reachable, b.kc.decode(rep))
	}
	if b.visited.Len() >= b.maxStates {
		b.res.StopReason = runctl.ErrStateBudget
		b.res.Truncated = true
		b.finish()
		return true
	}
	next.push(rep, rank)
	b.frontierLen++
	return false
}

// testLevelHook, when set by tests, observes each level before it is
// expanded.
var testLevelHook func(level int)

// run drives the breadth-first exploration of Figure 2 one level at a
// time. Up to workers workers expand contiguous slices of the level
// (expandLevel); reconcile then commits their candidates in worker
// order, which is exactly the FIFO admission order of the sequential
// algorithm, so the Result — ranks, witnesses, Reachable, and Visits on
// a mid-level stop — does not depend on the worker count. Spilling,
// budgets, cancellation and periodic checkpoints are handled between
// levels; only StopOnViolation and the exact state cap stop mid-level.
func (b *bfs) run(ctx context.Context, cur *frontier, workers int) (*Result, error) {
	sp := b.orun.Phase(obs.PhaseExpand)
	defer sp.End()
	if err := b.initSpill(); err != nil {
		return nil, err
	}
	// Bases for run-relative level stats (Visits and the visited set may
	// carry over from a resumed checkpoint, and registry counters must not
	// count them twice).
	visits0, admitted0 := b.res.Visits, b.visited.Len()
	next := &frontier{}
	for level := 0; cur.len() > 0; level++ {
		b.frontierLen = cur.len()
		if err := b.maybeSpill(); err != nil {
			return nil, err
		}
		if err := b.stopCheck(ctx); err != nil {
			b.stop(err, cur)
			return b.res, nil
		}
		if err := b.maybeCheckpoint(cur); err != nil {
			return nil, err
		}
		if testLevelHook != nil {
			testLevelHook(level)
		}
		work := b.expandLevel(level, cur, workers)
		rsp := b.orun.Phase(obs.PhaseReconcile)
		next.reps, next.ranks = next.reps[:0], next.ranks[:0]
		stopped, err := b.reconcile(work, next)
		rsp.End()
		if err != nil {
			return nil, err
		}
		if stopped {
			return b.res, nil
		}
		b.sinceCp += cur.len()
		cur, next = next, cur
		b.frontierLen = cur.len()
		b.bytes = b.estBytes()
		visits := b.res.Visits - visits0
		b.orun.Level(obs.LevelStats{
			Level:     level,
			Frontier:  cur.len(),
			Essential: b.visited.Len(),
			Visits:    visits,
			Pruned:    visits - (b.visited.Len() - admitted0),
			EstBytes:  b.bytes,
		})
	}
	b.finish()
	return b.res, nil
}

// reconcile commits one level's candidates into next in worker order,
// re-checking each against the visited set, since a candidate can
// duplicate one an earlier worker committed this level. On a mid-level
// stop Visits and SpecErrors cover exactly the successors the sequential
// algorithm would have generated by then: all of the earlier workers'
// and, of the stopping worker's, those before the stopping candidate.
func (b *bfs) reconcile(work []levelWork, next *frontier) (stopped bool, err error) {
	if err := b.spillFilter(work); err != nil {
		return false, err
	}
	for w := range work {
		lw := &work[w]
		for i := range lw.cands {
			c := &lw.cands[i]
			if c.spilled || b.visited.Has(entry(lw.keys, i, b.kc.w)) {
				continue
			}
			if b.commit(lw, i, next) {
				b.specErrors(lw.errs, c.ord)
				b.res.Visits += c.ord
				return true, nil
			}
		}
		b.specErrors(lw.errs, lw.gen+1)
		b.res.Visits += lw.gen
	}
	return false, nil
}

// specErrors records a worker's spec errors that occurred before its
// successor with ordinal ord was generated.
func (b *bfs) specErrors(errs []ordErr, ord int) {
	k := 0
	for k < len(errs) && errs[k].ord < ord {
		b.res.SpecErrors = append(b.res.SpecErrors, errs[k].err)
		k++
	}
	if k > 0 {
		b.orun.Event("spec_errors_total", int64(k))
	}
}

// SymmetryShadowed reports whether the engine's counting-mode expansion
// would skip cache i of c: a lower-indexed cache is in the same (state,
// data) class, so expanding both would produce permutation-equivalent
// successors and only the first representative of each class is
// expanded. Exported for the transition-graph export, which replays the
// engine's expansion policy.
func SymmetryShadowed(c *fsm.Config, i int) bool {
	for j := 0; j < i; j++ {
		if c.States[j] == c.States[i] && c.Versions[j] == c.Versions[i] {
			return true
		}
	}
	return false
}

// witness reconstructs the path from the initial configuration to the
// state admitted at rank r with key k, walking the rank-indexed
// provenance records and rendering each hop's key in the legacy
// canonical string format (PathStep.To equals fsm.Config.Key of the
// state reached, in strict mode). Ancestor keys are recovered from
// their ranks with one pass over the store (plus the spill files of an
// out-of-core run) — violations are rare, so the scan is off the hot
// path.
func (b *bfs) witness(k []byte, r uint32) []PathStep {
	var chain []uint32 // ranks from the violation up, excluding rank 0
	for cur := r; b.parents[cur].parent != noParent; cur = b.parents[cur].parent {
		chain = append(chain, cur)
		if len(chain) > 1000000 {
			break
		}
	}
	keys := map[uint32][]byte{r: k}
	if len(chain) > 1 {
		wanted := make(map[uint32]bool, len(chain))
		for _, cr := range chain {
			if cr != r {
				wanted[cr] = true
			}
		}
		collect := func(kk []byte, rr uint32) {
			if wanted[rr] {
				keys[rr] = append([]byte(nil), kk...)
			}
		}
		b.visited.ForEach(collect)
		if b.spill != nil {
			if err := b.forEachSpilled(b.spill.visitedFiles, collect); err != nil {
				b.res.SpecErrors = append(b.res.SpecErrors, fmt.Errorf("enum: resolving witness path: %w", err))
			}
		}
	}
	steps := make([]PathStep, len(chain))
	for i, cr := range chain {
		rec := b.parents[cr]
		steps[len(chain)-1-i] = PathStep{
			Cache: int(rec.cache),
			Op:    b.p.Ops[rec.op],
			To:    b.kc.render(keys[cr]),
		}
	}
	return steps
}
