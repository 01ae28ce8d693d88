package enum

import (
	"context"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"

	"repro/internal/compile"
	"repro/internal/fsm"
	"repro/internal/obs"
)

// ExhaustiveParallel is Exhaustive with RunConfig.Workers set to
// workers, so workers > 1 selects the level-synchronous parallel driver
// (see Run and runPar); the result is bit-for-bit identical either way.
func ExhaustiveParallel(p *fsm.Protocol, n int, opts Options, workers int) (*Result, error) {
	opts.Workers = workers
	return Exhaustive(p, n, opts)
}

// CountingParallel is the counting-equivalence variant of ExhaustiveParallel.
func CountingParallel(p *fsm.Protocol, n int, opts Options, workers int) (*Result, error) {
	opts.Workers = workers
	return Counting(p, n, opts)
}

// WorkerError records a panic recovered in a parallel BFS worker. The
// worker's frontier slice is re-expanded sequentially after the recovery
// (admissions are idempotent under equal ranks, so a partial first attempt
// is harmless), so a transient panic leaves the run's results bit-for-bit
// identical to the sequential algorithm; a panic that persists in the
// sequential retry is additionally surfaced as a SpecError and the
// worker's pending admissions are discarded.
type WorkerError struct {
	// Level is the BFS depth at which the worker panicked.
	Level int
	// Worker is the index of the panicked worker within its level.
	Worker int
	// Value is the rendered panic value.
	Value string
	// Stack is the goroutine stack captured at recovery.
	Stack string
}

func (e *WorkerError) Error() string {
	return fmt.Sprintf("enum: worker %d panicked at level %d: %s", e.Worker, e.Level, e.Value)
}

// succItem is one generated successor, tagged with provenance for witness
// reconstruction. The equivalence key is computed at generation time so
// admission only performs map operations.
type succItem struct {
	cfg    *fsm.Config
	key    Key
	parent Key
	cache  int
	op     fsm.Op
	// tupleDup marks a successor whose state tuple is already known to a
	// spilled tuple census (set by spillFilter), so commit must not count
	// it again.
	tupleDup bool
}

// workerOut is a reusable successor buffer, pooled across levels and
// runs so steady-state expansion does not re-grow it.
type workerOut struct {
	items    []succItem
	specErrs []error
	// base and work are the compiled-configuration scratch of expandOne:
	// the dequeued state encoded once, and the per-successor working copy.
	// They live here so both the sequential loop and the pooled parallel
	// workers reuse them across expansions without allocating.
	base, work compile.Config
}

var workerOutPool = sync.Pool{New: func() any { return new(workerOut) }}

func getWorkerOut() *workerOut { return workerOutPool.Get().(*workerOut) }

func putWorkerOut(out *workerOut) {
	out.items = out.items[:0]
	out.specErrs = out.specErrs[:0]
	workerOutPool.Put(out)
}

// frontierPool recycles level slices: each BFS level retires its
// frontier slice and the pool hands it to a later level's next buffer.
var frontierPool = sync.Pool{New: func() any { return new([]*fsm.Config) }}

func getFrontierSlice() []*fsm.Config {
	return (*frontierPool.Get().(*[]*fsm.Config))[:0]
}

func putFrontierSlice(s []*fsm.Config) {
	frontierPool.Put(&s)
}

// useInterpretedExpand, when set by tests, routes expandOne through the
// interpreted fsm.Step reference path instead of the compiled tables. The
// compile-parity suite flips it to assert the two paths produce
// byte-identical results over every spec and every mutant. Never set
// outside tests; it is read without synchronization.
var useInterpretedExpand = false

// expandOne generates the successors of one frontier configuration into
// out. It is the single expansion routine shared by the sequential engine
// and the parallel workers' admission loop, which is what keeps the two
// observationally identical. The hot path steps through the run's compiled
// protocol (kc.cp): the dequeued configuration is encoded to integer states
// once, each successor is generated by a table-driven compiled step, and
// only admitted successors are materialized back to fsm.Config form.
func expandOne(kc *keyCodec, symmetric bool, cur *fsm.Config, out *workerOut) {
	if useInterpretedExpand {
		expandOneInterpreted(kc, symmetric, cur, out)
		return
	}
	curKey := kc.key(cur)
	p, n, cp := kc.p, kc.n, kc.cp
	if err := cp.Encode(cur, &out.base); err != nil {
		out.specErrs = append(out.specErrs, err)
		return
	}
	for i := 0; i < n; i++ {
		if symmetric && shadowedBySibling(cur, i) {
			continue
		}
		st := int(out.base.States[i])
		for k := range p.Ops {
			if !cp.HasRules(st, k) {
				continue
			}
			out.work.CopyFrom(&out.base)
			if _, err := cp.Step(&out.work, i, k); err != nil {
				out.specErrs = append(out.specErrs, err)
				continue
			}
			next := cloneConfig(cur)
			cp.Decode(&out.work, next)
			Canonicalize(next)
			out.items = append(out.items, succItem{
				cfg: next, key: kc.key(next),
				parent: curKey, cache: i, op: p.Ops[k],
			})
		}
	}
}

// expandOneInterpreted is the interpreted reference expansion — the exact
// pre-compilation code path, stepping fsm.Config through fsm.Step. It is
// retained solely as the parity oracle for the compiled path above.
func expandOneInterpreted(kc *keyCodec, symmetric bool, cur *fsm.Config, out *workerOut) {
	curKey := kc.key(cur)
	p, n := kc.p, kc.n
	for i := 0; i < n; i++ {
		if symmetric && shadowedBySibling(cur, i) {
			continue
		}
		for _, op := range p.Ops {
			if len(p.RulesFor(cur.States[i], op)) == 0 {
				continue
			}
			next := cloneConfig(cur)
			if _, err := fsm.Step(p, next, i, op); err != nil {
				out.specErrs = append(out.specErrs, err)
				releaseConfig(next)
				continue
			}
			Canonicalize(next)
			out.items = append(out.items, succItem{
				cfg: next, key: kc.key(next),
				parent: curKey, cache: i, op: op,
			})
		}
	}
}

// rankShift packs (worker, item) into a single admission rank: rank order
// equals the order the old single-threaded merge applied worker output in
// (all of worker 0's items, then worker 1's, ...), which makes the
// reconcile deterministic and identical to the sequential engine.
const rankShift = 40

// pendEntry is one successor admitted into the level's pending set: the
// lowest-ranked generator of its key seen so far, with its invariant
// violations precomputed inside the worker.
type pendEntry struct {
	it   succItem
	rank uint64
	viol []fsm.Violation
}

// pendShard is one lock-striped slice of the pending admission set.
type pendShard struct {
	mu sync.Mutex
	m  map[Key]*pendEntry
}

const numShards = 64 // power of two

// pendSet is the hash-sharded pending set of one BFS level. Workers admit
// concurrently; the minimum-rank entry wins key collisions, so the
// surviving set is independent of goroutine scheduling.
type pendSet struct {
	shards [numShards]pendShard
}

func newPendSet() *pendSet {
	ps := &pendSet{}
	for i := range ps.shards {
		ps.shards[i].m = make(map[Key]*pendEntry)
	}
	return ps
}

func (ps *pendSet) shard(k Key) *pendShard {
	return &ps.shards[k.hash()&(numShards-1)]
}

// admit offers one generated successor to the pending set. Losing
// duplicates return their configuration to the pool; equal ranks keep the
// existing entry, which makes re-running a worker (panic retry) idempotent.
func (ps *pendSet) admit(it succItem, rank uint64, strict bool, p *fsm.Protocol) {
	sh := ps.shard(it.key)
	// Fast pre-check: drop clearly losing duplicates before paying for the
	// invariant check.
	sh.mu.Lock()
	if e := sh.m[it.key]; e != nil && e.rank <= rank {
		sh.mu.Unlock()
		releaseConfig(it.cfg)
		return
	}
	sh.mu.Unlock()
	ent := &pendEntry{it: it, rank: rank, viol: fsm.CheckConfig(p, it.cfg, strict)}
	sh.mu.Lock()
	if e := sh.m[it.key]; e == nil || rank < e.rank {
		if e != nil {
			releaseConfig(e.it.cfg)
		}
		sh.m[it.key] = ent
		sh.mu.Unlock()
		return
	}
	sh.mu.Unlock()
	releaseConfig(it.cfg)
}

// purgeWorker discards every pending entry admitted by worker w, used when
// a worker's panic persists through the sequential retry: the degraded
// level then simply excludes that worker's output, like the old engine.
func (ps *pendSet) purgeWorker(w int) {
	for i := range ps.shards {
		sh := &ps.shards[i]
		sh.mu.Lock()
		for k, e := range sh.m {
			if int(e.rank>>rankShift) == w {
				releaseConfig(e.it.cfg)
				delete(sh.m, k)
			}
		}
		sh.mu.Unlock()
	}
}

// entries returns the surviving admissions sorted by rank — the exact
// order the sequential engine would have admitted them in.
func (ps *pendSet) entries() []*pendEntry {
	var out []*pendEntry
	for i := range ps.shards {
		for _, e := range ps.shards[i].m {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].rank < out[j].rank })
	return out
}

// Test hooks. testLevelHook observes each level before its workers fan
// out; testWorkerHook runs inside each worker goroutine (and not in the
// sequential fallback), which is how the tests inject worker panics.
var (
	testLevelHook  func(level int)
	testWorkerHook func(level, worker int)
)

// expandWorker is the body of one level worker: it expands a frontier
// slice via expandOne, deduplicates each successor against the committed
// visited set (read-only during the level, so the read is lock-free) and
// offers the survivors to the sharded pending set under rank
// w<<rankShift|item. It returns the number of successors generated (the
// worker's contribution to Visits) and any specification errors, both in
// deterministic order.
func (b *bfs) expandWorker(w int, frontier []*fsm.Config, ps *pendSet) (int, []error) {
	out := getWorkerOut()
	item := uint64(0)
	for _, cur := range frontier {
		out.items = out.items[:0]
		expandOne(b.kc, b.symmetric, cur, out)
		for _, it := range out.items {
			rank := uint64(w)<<rankShift | item
			item++
			if b.visited.has(it.key) {
				releaseConfig(it.cfg)
				continue
			}
			ps.admit(it, rank, b.opts.Strict, b.p)
		}
	}
	specErrs := out.specErrs
	out.specErrs = nil // retained by the caller; don't recycle the backing array
	putWorkerOut(out)
	return int(item), specErrs
}

// runPar drives the level-synchronous parallel BFS over the shared bfs
// state. Within a level, workers expand disjoint frontier slices and
// admit successors concurrently into a hash-sharded pending set (the
// committed visited set is read-only during the level, so dedup against
// prior levels is lock-free); the post-level reconcile then applies the
// surviving admissions in rank order, which reproduces the sequential
// engine's admission order exactly. The result is therefore bit-for-bit
// identical to runSeq: visits count generated successors, independent of
// exploration order. Budgets are checked between levels, so a stopped run
// contains whole levels only. The mⁿ state spaces of Section 3.1 are
// embarrassingly parallel per level; BenchmarkParallelEnumeration
// measures the gain on large n.
func (b *bfs) runPar(ctx context.Context, frontier []*fsm.Config, workers int) (*Result, error) {
	sp := b.orun.Phase(obs.PhaseExpand)
	defer sp.End()
	if err := b.initSpill(frontier); err != nil {
		return nil, err
	}
	// Bases for run-relative level stats (Visits and the visited set may
	// carry over from a resumed checkpoint).
	visits0, admitted0 := b.res.Visits, b.visited.size()
	for level := 0; len(frontier) > 0; level++ {
		b.frontierLen = len(frontier)
		if err := b.maybeSpill(); err != nil {
			return nil, err
		}
		if err := b.stopCheck(ctx); err != nil {
			b.stop(err, frontier)
			return b.res, nil
		}
		if err := b.maybeCheckpoint(frontier); err != nil {
			return nil, err
		}
		if testLevelHook != nil {
			testLevelHook(level)
		}

		// Fan out: each worker expands a contiguous slice of the frontier
		// and admits into the sharded pending set as it goes.
		nw := workers
		if nw > len(frontier) {
			nw = len(frontier)
		}
		ps := newPendSet()
		gen := make([]int, nw)
		errs := make([][]error, nw)
		panics := make([]*WorkerError, nw)
		chunk := (len(frontier) + nw - 1) / nw
		bounds := func(w int) (int, int) {
			lo := w * chunk
			if lo > len(frontier) {
				lo = len(frontier)
			}
			hi := lo + chunk
			if hi > len(frontier) {
				hi = len(frontier)
			}
			return lo, hi
		}
		var wg sync.WaitGroup
		for w := 0; w < nw; w++ {
			lo, hi := bounds(w)
			wg.Add(1)
			go func(w, lo, hi, level int) {
				defer wg.Done()
				defer func() {
					if r := recover(); r != nil {
						gen[w], errs[w] = 0, nil
						panics[w] = &WorkerError{
							Level: level, Worker: w,
							Value: fmt.Sprint(r),
							Stack: string(debug.Stack()),
						}
					}
				}()
				if testWorkerHook != nil {
					testWorkerHook(level, w)
				}
				gen[w], errs[w] = b.expandWorker(w, frontier[lo:hi], ps)
			}(w, lo, hi, level)
		}
		wg.Wait()

		// Panic isolation: a panicked worker's slice is re-expanded
		// sequentially. Expansion is deterministic and pending admission
		// is idempotent under equal ranks, so entries from the aborted
		// first attempt simply stay and the retry fills in the rest —
		// the merged level is identical to the sequential algorithm's.
		// A panic that persists outside the worker pool is reported (and
		// the worker's partial admissions withdrawn) instead of crashing
		// the run.
		for w, we := range panics {
			if we == nil {
				continue
			}
			b.res.WorkerErrors = append(b.res.WorkerErrors, we)
			b.orun.Event("worker_panics_total", 1)
			lo, hi := bounds(w)
			func() {
				defer func() {
					if r := recover(); r != nil {
						gen[w], errs[w] = 0, nil
						ps.purgeWorker(w)
						b.res.SpecErrors = append(b.res.SpecErrors, fmt.Errorf(
							"enum: panic persisted in sequential retry of level %d slice [%d:%d]: %v",
							we.Level, lo, hi, r))
					}
				}()
				gen[w], errs[w] = b.expandWorker(w, frontier[lo:hi], ps)
			}()
		}

		// Reconcile: apply the surviving admissions in rank order. A
		// mid-level stop (StopOnViolation, state cap) at rank (w, i)
		// counts exactly the successors the sequential merge would have
		// processed by then: all of workers < w plus i+1 of worker w.
		rsp := b.orun.Phase(obs.PhaseReconcile)
		entries := ps.entries()
		if b.spill != nil {
			// Delayed duplicate detection: drop pending successors whose
			// key (or tuple) already lives in a spill file, and collect
			// the surviving frontier's ranks for the next level's
			// provenance lookups.
			var err error
			if entries, err = b.spillFilter(entries); err != nil {
				rsp.End()
				return nil, err
			}
			b.nextRanks = make(map[Key]uint32, len(entries))
		}
		next := getFrontierSlice()
		appended := 0 // workers whose spec errors are already in res
		stopped := false
		for _, e := range entries {
			ew := int(e.rank >> rankShift)
			for ; appended <= ew; appended++ {
				b.res.SpecErrors = append(b.res.SpecErrors, errs[appended]...)
			}
			if b.commit(e.it, e.viol, &next) {
				prior := 0
				for w := 0; w < ew; w++ {
					prior += gen[w]
				}
				b.res.Visits += prior + int(e.rank&(1<<rankShift-1)) + 1
				stopped = true
				break
			}
		}
		rsp.End()
		if stopped {
			return b.res, nil
		}
		for ; appended < nw; appended++ {
			b.res.SpecErrors = append(b.res.SpecErrors, errs[appended]...)
		}
		for _, g := range gen {
			b.res.Visits += g
		}
		for _, cur := range frontier {
			releaseConfig(cur)
		}
		b.sinceCp += len(frontier)
		putFrontierSlice(frontier)
		frontier = next
		b.frontierLen = len(frontier)
		b.bytes = b.estBytes()
		if b.spill != nil {
			b.frontRanks, b.nextRanks = b.nextRanks, nil
		}
		visits := b.res.Visits - visits0
		b.orun.Level(obs.LevelStats{
			Level:     level,
			Frontier:  len(frontier),
			Essential: b.visited.size(),
			Visits:    visits,
			Pruned:    visits - (b.visited.size() - admitted0),
			EstBytes:  b.bytes,
		})
	}
	b.finish()
	return b.res, nil
}
