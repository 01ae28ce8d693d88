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
// Cancellation, the deadline and the memory budget are checked at
// worklist-item granularity by the sequential engine and at level
// granularity by the parallel engine, so a stopped run always ends at a
// clean boundary and its partial Result (and checkpoint) covers whole
// expansion steps only.
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
	// RunConfig.CheckpointEvery (every that many expanded states for the
	// sequential engine, frontier states for the parallel one); a non-nil
	// return aborts the run with that error. It stays outside RunConfig
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
	// worklist/level boundary (cancellation, deadline or memory budget;
	// the exact state cap stops mid-step and is not checkpointable).
	Checkpoint *Checkpoint
	// EstBytes is the run's final estimated resident footprint, the value
	// the memory budget was enforced against (see stateBytes).
	EstBytes int64
	// WorkerErrors records panics recovered in parallel BFS workers. The
	// affected frontier slices were re-expanded sequentially, so unless a
	// matching SpecError reports a persistent panic the results are
	// unaffected.
	WorkerErrors []*WorkerError
}

// OK reports whether the protocol verified cleanly at this cache count.
func (r *Result) OK() bool { return len(r.Violations) == 0 && len(r.SpecErrors) == 0 }

// strictKey is the legacy string identity of a configuration up to strict
// equality (Section 3.1). The engines key states by the packed Key of
// key.go instead; the string forms remain as the reference implementation
// the packed encoding is property-tested against, as the rendering of keys
// in checkpoints and witnesses, and as the fallback identity for runs too
// large to pack.
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
// witness paths store (PathStep.To). It is computed by the legacy string
// reference implementation — not the packed fast-path codec — so an
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
// RunConfig.Workers > 1 selects the level-synchronous parallel driver
// with that many workers, and so does RunConfig.SpillDir (out-of-core
// dedup exists only there; it then runs with at least one worker).
// Otherwise the sequential queue loop runs. Both drivers produce
// bit-identical Results and checkpoints, and either resumes the other's.
func Run(ctx context.Context, p *fsm.Protocol, n int, opts Options) (*Result, error) {
	var b *bfs
	var frontier []*fsm.Config
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
	if opts.Workers > 1 || opts.SpillDir != "" {
		return b.runPar(ctx, frontier, max(opts.Workers, 1))
	}
	return b.runSeq(ctx, frontier)
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

// bfs is the shared state of one enumeration run, used identically by the
// sequential queue loop and the level-synchronous parallel loop (and
// rebuilt from a Checkpoint on resume), so budget enforcement and
// successor admission cannot drift between the engines.
type bfs struct {
	p         *fsm.Protocol
	n         int
	opts      Options
	orun      *obs.Run // nil when unobserved: the allocation-free fast path
	kc        *keyCodec
	mode      string
	symmetric bool
	maxStates int

	// visited and tuples are the compact dedup sets (see store.go); a
	// state's rank in visited is its admission order. parents is the
	// rank-indexed provenance: parents[r] records how the state admitted
	// at rank r was first reached. opIx maps operations to their
	// Protocol.Ops index for the uint8 op field.
	visited visitedStore
	tuples  visitedStore
	parents []parentRec
	opIx    map[fsm.Op]uint8

	// frontierLen is the current worklist length, maintained by the run
	// loops for the footprint estimate.
	frontierLen int
	bytes       int64 // estimated worklist+visited footprint (estBytes)

	// memo caches the last parent-rank lookup: successors of one
	// expansion step share a parent, so commit resolves it once.
	memoKey  Key
	memoRank uint32
	memoOK   bool

	// Out-of-core state (parallel engine only, see spill.go). frontRanks
	// pins the current frontier's ranks in memory across spills;
	// nextRanks collects the next level's during reconcile.
	spill      *spillState
	frontRanks map[Key]uint32
	nextRanks  map[Key]uint32

	// sinceCp counts expanded states since the last periodic checkpoint.
	sinceCp int
	// dups counts successors discarded as identity duplicates by the
	// sequential engine (the parallel engine derives the same quantity from
	// Visits at level boundaries); it feeds LevelStats.Pruned.
	dups int

	res *Result
}

// cfgBytes estimates the resident cost of one frontier configuration: the
// fsm.Config struct, its States slice of string headers and its Versions
// slice. The constant is pinned against measured heap growth by
// TestStateBytesEstimate, which also covers the store estimates it is
// summed with in estBytes.
func cfgBytes(n int) int64 {
	return int64(24*n + 128)
}

// estBytes estimates the run's resident footprint: the visited and tuple
// sets, the provenance records and the frontier configurations.
func (b *bfs) estBytes() int64 {
	return b.visited.bytes() + b.tuples.bytes() +
		int64(cap(b.parents))*parentRecBytes +
		int64(b.frontierLen)*cfgBytes(b.n)
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
	b := &bfs{
		p: p, n: n, opts: opts, kc: newKeyCodec(p, n, mode), mode: mode,
		orun:      opts.Sink().Run("enum-"+mode, p.Name),
		symmetric: mode == ModeCounting,
		maxStates: maxStates,
		opIx:      opIx,
		res:       &Result{Protocol: p, N: n},
	}
	b.visited, b.tuples = newStores(b.kc, n)
	return b, nil
}

// startBFS seeds a fresh run with the initial configuration and returns
// the first frontier, or a nil frontier when the run already ended
// (initial-state violation under StopOnViolation).
func startBFS(p *fsm.Protocol, n int, opts Options) (*bfs, []*fsm.Config, error) {
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
	b.visited.insert(b.kc.key(init))
	b.parents = append(b.parents, parentRec{parent: noParent})
	b.tuples.insert(b.kc.tupleKey(init))
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
	return b, []*fsm.Config{init}, nil
}

// stopCheck evaluates the boundary-granularity budgets: context liveness,
// wall-clock deadline and memory. The state cap is enforced exactly inside
// admit instead.
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
func (b *bfs) stop(reason error, frontier []*fsm.Config) {
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
func (b *bfs) maybeCheckpoint(frontier []*fsm.Config) error {
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
	b.res.Unique = b.visited.size()
	b.res.TupleStates = b.tuples.size()
	b.bytes = b.estBytes()
	b.res.EstBytes = b.bytes
}

// admit merges one generated successor in the sequential engine: dedup,
// then the shared commit bookkeeping. It appends newly admitted states to
// *next and reports true when the run must end now (StopOnViolation or
// state budget). Duplicates return their configuration to the pool.
func (b *bfs) admit(it succItem, next *[]*fsm.Config) bool {
	b.res.Visits++
	if b.visited.has(it.key) {
		b.dups++
		releaseConfig(it.cfg)
		return false
	}
	return b.commit(it, fsm.CheckConfig(b.p, it.cfg, b.opts.Strict), next)
}

// parentRank resolves the admission rank of a parent key: the memoized
// last lookup (successors of one step share their parent), then the
// pinned frontier ranks of an out-of-core run (the parent may have been
// spilled), then the resident store.
func (b *bfs) parentRank(k Key) uint32 {
	if k.isZero() {
		return noParent
	}
	if b.memoOK && k == b.memoKey {
		return b.memoRank
	}
	r, ok := uint32(0), false
	if b.frontRanks != nil {
		r, ok = b.frontRanks[k]
	}
	if !ok {
		if r, ok = b.visited.rank(k); !ok {
			// Parents are always either resident or pinned in frontRanks;
			// reaching here means the run state is corrupt.
			panic("enum: internal error: parent state has no recorded rank")
		}
	}
	b.memoKey, b.memoRank, b.memoOK = k, r, true
	return r
}

// commit installs one deduplicated successor: provenance, tuple census,
// violation recording and the exact state cap. It is shared by the
// sequential admit and the parallel reconcile (which precomputes viol
// inside the workers), so the two engines cannot drift.
func (b *bfs) commit(it succItem, viol []fsm.Violation, next *[]*fsm.Config) bool {
	rank := b.visited.insert(it.key)
	b.parents = append(b.parents, parentRec{
		parent: b.parentRank(it.parent),
		cache:  uint16(it.cache),
		op:     b.opIx[it.op],
	})
	if b.nextRanks != nil {
		b.nextRanks[it.key] = rank
	}
	if !it.tupleDup {
		if tk := b.kc.tupleKey(it.cfg); !b.tuples.has(tk) {
			b.tuples.insert(tk)
		}
	}
	if len(viol) > 0 {
		b.res.Violations = append(b.res.Violations, Violation{
			Config:     it.cfg.Clone(),
			Violations: viol,
			Path:       b.witness(it.key, rank),
		})
		b.orun.Event(obs.MetricViolations, 1)
		if b.opts.StopOnViolation {
			b.finish()
			return true
		}
	}
	if b.opts.KeepReachable {
		b.res.Reachable = append(b.res.Reachable, it.cfg.Clone())
	}
	if b.visited.size() >= b.maxStates {
		b.res.StopReason = runctl.ErrStateBudget
		b.res.Truncated = true
		b.finish()
		return true
	}
	*next = append(*next, it.cfg)
	b.frontierLen++
	return false
}

// testItemHook, when set by tests, observes each sequential expansion step
// (called with the number of states expanded so far, before the step runs).
var testItemHook func(expanded int)

// runSeq drives the classic FIFO exploration of Figure 2. Budgets are
// checked before each expansion step, so every dequeued state is either
// fully expanded or still on the queue when the run stops. The successor
// buffer is reused across steps and fully expanded configurations return
// to the pool, so the steady-state loop allocates only for newly admitted
// frontier states.
func (b *bfs) runSeq(ctx context.Context, queue []*fsm.Config) (*Result, error) {
	sp := b.orun.Phase(obs.PhaseExpand)
	defer sp.End()
	expanded := 0
	// FIFO order expands the queue level by level, so the boundary where
	// the current level's last state has been dequeued and expanded is a
	// true BFS level boundary: everything left on the queue is the next
	// level's frontier. Visits may carry over from a resumed checkpoint;
	// level stats are relative to this run so registry counters never
	// double-count.
	level, remaining, visits0 := 0, len(queue), b.res.Visits
	var out workerOut
	for len(queue) > 0 {
		b.frontierLen = len(queue)
		if err := b.stopCheck(ctx); err != nil {
			b.stop(err, queue)
			return b.res, nil
		}
		if err := b.maybeCheckpoint(queue); err != nil {
			return nil, err
		}
		if testItemHook != nil {
			testItemHook(expanded)
		}
		cur := queue[0]
		queue = queue[1:]
		out.items = out.items[:0]
		out.specErrs = out.specErrs[:0]
		expandOne(b.kc, b.symmetric, cur, &out)
		b.res.SpecErrors = append(b.res.SpecErrors, out.specErrs...)
		if len(out.specErrs) > 0 {
			b.orun.Event("spec_errors_total", int64(len(out.specErrs)))
		}
		for _, it := range out.items {
			if b.admit(it, &queue) {
				return b.res, nil
			}
		}
		releaseConfig(cur)
		expanded++
		b.sinceCp++
		if remaining--; remaining == 0 {
			b.orun.Level(obs.LevelStats{
				Level:     level,
				Frontier:  len(queue),
				Essential: b.visited.size(),
				Visits:    b.res.Visits - visits0,
				Pruned:    b.dups,
				EstBytes:  b.bytes,
			})
			level++
			remaining = len(queue)
		}
	}
	b.finish()
	return b.res, nil
}

// SymmetryShadowed reports whether the engines' counting-mode expansion
// would skip cache i of c as permutation-equivalent to a lower-indexed
// sibling (see shadowedBySibling). Exported for the transition-graph
// export, which replays the engines' expansion policy.
func SymmetryShadowed(c *fsm.Config, i int) bool { return shadowedBySibling(c, i) }

// shadowedBySibling reports whether a lower-indexed cache is in the same
// (state, data) class as cache i; under counting equivalence expanding both
// produces permutation-equivalent successors, so only the first
// representative of each class is expanded.
func shadowedBySibling(c *fsm.Config, i int) bool {
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
func (b *bfs) witness(k Key, r uint32) []PathStep {
	var chain []uint32 // ranks from the violation up, excluding rank 0
	for cur := r; b.parents[cur].parent != noParent; cur = b.parents[cur].parent {
		chain = append(chain, cur)
		if len(chain) > 1000000 {
			break
		}
	}
	keys := map[uint32]Key{r: k}
	if len(chain) > 1 {
		wanted := make(map[uint32]bool, len(chain))
		for _, cr := range chain {
			if cr != r {
				wanted[cr] = true
			}
		}
		collect := func(kk Key, rr uint32) {
			if wanted[rr] {
				keys[rr] = kk
			}
		}
		b.visited.forEach(collect)
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
