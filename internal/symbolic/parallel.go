package symbolic

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"

	"repro/internal/fsm"
	"repro/internal/obs"
)

// Parallel symbolic expansion. The Figure 3 loop is inherently
// sequential — every successor interacts with the working and history
// lists through containment, and the paper's "discard A and start a new
// run" branch aborts an expansion mid-item — but the expensive part of
// each iteration, expanding every (class, operation) event of the
// popped state through the guard cascade and scenario splitting plus
// the violation check of every successor, is a pure function of the
// state alone. The parallel driver exploits that with a speculation
// pipeline: a pool of persistent workers precomputes expandItem for
// every state the moment it enters the working list, while the merge
// loop consumes the finished futures in FIFO order. The merge loop IS
// the sequential loop, fed the same values, so results are
// bit-identical to the sequential engine — same Essential list, same
// counters, same violations and witness paths. Because states are
// dispatched in worklist order and the workers drain the job queue in
// that same order, the head's expansion is always the first to finish;
// the only discarded work is for states evicted by containment pruning
// before their turn.

// WorkerError records a panic recovered in a speculation worker. The
// affected state is re-expanded inline by the merge loop (expandItem
// is deterministic, so a transient panic leaves the results identical);
// a panic that persists in the inline retry propagates like a panic in
// the sequential engine would.
type WorkerError struct {
	// Job is the dispatch sequence number of the speculation job that
	// panicked (0 for the initial state).
	Job int
	// Worker is the index of the panicked worker within the pool.
	Worker int
	// Value is the rendered panic value.
	Value string
	// Stack is the goroutine stack captured at recovery.
	Stack string
}

func (e *WorkerError) Error() string {
	return fmt.Sprintf("symbolic: worker %d panicked expanding speculation job %d: %s", e.Worker, e.Job, e.Value)
}

// itemMemo is the speculated expansion of one worklist state, in the
// exact (class, op) order processItem consumes it: events[i] covers
// succs[lo:hi], and viols[j] is the violation check of succs[j]. Check,
// like expandEvent, is a pure function of the successor state, and
// hoisting it into the speculation phase roughly doubles the
// parallelizable fraction of an expansion.
type itemMemo struct {
	events []eventResult
	succs  []Succ
	viols  [][]fsm.Violation
}

// eventResult is one expandEvent call of an itemMemo, tagged with its
// (class, op-index) position so processItem can verify the memo cursor
// stays aligned with its own iteration order.
type eventResult struct {
	oi, k  int
	lo, hi int
	err    error
}

// expandItem precomputes every event expansion of one worklist state
// together with the violation check of every generated successor
// (profiling shows the two together are ~80% of an expansion step; the
// serial merge keeps only the containment bookkeeping). It only reads the
// engine's immutable rule tables and the state, and builds in the
// caller's scratch, so concurrent calls with distinct scratches are
// race-free.
func (e *Engine) expandItem(x *scratch, a *CState, strict bool) *itemMemo {
	m := itemMemoPool.Get().(*itemMemo)
	for oi := 0; oi < a.NumClasses(); oi++ {
		if !a.Rep(oi).CanBePositive() {
			continue
		}
		for k, op := range e.p.Ops {
			rules := e.eventTabs[oi][k]
			if len(rules) == 0 {
				continue
			}
			lo := len(m.succs)
			var err error
			m.succs, err = e.expandEvent(x, m.succs, a, oi, op, rules)
			m.events = append(m.events, eventResult{oi: oi, k: k, lo: lo, hi: len(m.succs), err: err})
		}
	}
	for _, su := range m.succs {
		m.viols = append(m.viols, e.Check(su.State, strict))
	}
	return m
}

// itemMemoPool recycles the memos: each dispatched state gets one and the
// merge loop retires it as soon as the state is processed, so
// steady-state speculation reuses a small set.
var itemMemoPool = sync.Pool{New: func() any { return new(itemMemo) }}

func putItemMemo(m *itemMemo) {
	// Drop the states, violations and errors so the pool retains none.
	clear(m.events)
	clear(m.succs)
	clear(m.viols)
	m.events, m.succs, m.viols = m.events[:0], m.succs[:0], m.viols[:0]
	itemMemoPool.Put(m)
}

// testWorkerHook, when set by tests, runs inside each speculation worker
// goroutine (and not in the inline retry), which is how the tests inject
// worker panics.
var testWorkerHook func(job, worker int)

// specFuture is the slot one speculation job fills: res and we are
// written by exactly one worker before done is closed, and read by the
// merge loop only after done is closed.
type specFuture struct {
	done chan struct{}
	res  *itemMemo
	we   *WorkerError
}

type specJob struct {
	seq int
	a   *CState
	fut *specFuture
}

// speculator runs the speculation pipeline: a pool of persistent worker
// goroutines fed through a job queue, and a future per dispatched
// working-list state. The futures map and the dispatch bookkeeping are
// owned by the merge loop; workers touch only the future they were
// handed (plus the panic list, under the mutex).
type speculator struct {
	x    *expander
	jobs chan specJob
	wg   sync.WaitGroup

	futures map[*CState]*specFuture
	seq     int

	mu     sync.Mutex
	panics []*WorkerError
}

func newSpeculator(x *expander, workers int) *speculator {
	sp := &speculator{
		x:       x,
		jobs:    make(chan specJob, 4*workers),
		futures: make(map[*CState]*specFuture),
	}
	for w := 0; w < workers; w++ {
		sp.wg.Add(1)
		go sp.worker(w)
	}
	return sp
}

func (sp *speculator) worker(w int) {
	defer sp.wg.Done()
	var x scratch
	for job := range sp.jobs {
		sp.runJob(w, &x, job)
	}
}

func (sp *speculator) runJob(w int, x *scratch, job specJob) {
	defer close(job.fut.done)
	defer func() {
		if r := recover(); r != nil {
			we := &WorkerError{
				Job: job.seq, Worker: w,
				Value: fmt.Sprint(r),
				Stack: string(debug.Stack()),
			}
			job.fut.we = we
			sp.mu.Lock()
			sp.panics = append(sp.panics, we)
			sp.mu.Unlock()
		}
	}()
	if testWorkerHook != nil {
		testWorkerHook(job.seq, w)
	}
	job.fut.res = sp.x.e.expandItem(x, job.a, sp.x.opts.Strict)
}

// dispatch hands every not-yet-speculated working-list state to the
// pool. New states enter the FIFO at the back and pruning only removes
// (never reorders), so the undispatched states always form a suffix of
// the list: scan backwards to the first dispatched one.
func (sp *speculator) dispatch() {
	work := sp.x.work
	i := len(work)
	for i > 0 {
		if _, ok := sp.futures[work[i-1]]; ok {
			break
		}
		i--
	}
	for ; i < len(work); i++ {
		fut := &specFuture{done: make(chan struct{})}
		sp.futures[work[i]] = fut
		sp.jobs <- specJob{seq: sp.seq, a: work[i], fut: fut}
		sp.seq++
		sp.x.orun.Event("speculation_jobs_total", 1)
	}
}

// take claims the speculated results for the popped head, blocking
// until its worker finishes. A nil return (worker panicked, or the
// state was never dispatched) tells the caller to expand inline.
func (sp *speculator) take(a *CState) *itemMemo {
	fut, ok := sp.futures[a]
	if !ok {
		return nil
	}
	delete(sp.futures, a)
	<-fut.done
	if fut.we != nil {
		return nil
	}
	return fut.res
}

// maybeSweep reclaims futures whose states were evicted from the
// working list by containment pruning before their turn — the only
// speculation waste this design has. Finished futures return their
// buffers to the pool; in-flight ones are abandoned to the collector.
// The threshold keeps the sweep amortized against the worklist size.
func (sp *speculator) maybeSweep() {
	if len(sp.futures) <= 2*len(sp.x.work)+16 {
		return
	}
	in := make(map[*CState]struct{}, len(sp.x.work))
	for _, s := range sp.x.work {
		in[s] = struct{}{}
	}
	swept := int64(0)
	for s, fut := range sp.futures {
		if _, ok := in[s]; ok {
			continue
		}
		delete(sp.futures, s)
		swept++
		select {
		case <-fut.done:
			if fut.we == nil {
				putItemMemo(fut.res)
			}
		default:
		}
	}
	if swept > 0 {
		sp.x.orun.Event("speculation_discarded_total", swept)
	}
}

// shutdown stops the pool: no more jobs, and every in-flight one has
// finished when it returns.
func (sp *speculator) shutdown() {
	close(sp.jobs)
	sp.wg.Wait()
}

// drainPanics records every recovered worker panic into the result.
func (sp *speculator) drainPanics() {
	sp.mu.Lock()
	panics := sp.panics
	sp.panics = nil
	sp.mu.Unlock()
	for _, we := range panics {
		sp.x.res.WorkerErrors = append(sp.x.res.WorkerErrors, we)
		sp.x.orun.Event("worker_panics_total", 1)
	}
}

// runPar drives the Figure 3 loop with the speculation pipeline: every
// state entering the working list is dispatched to the worker pool
// immediately, and the merge loop blocks (rarely) on the head's future.
// The merge loop defers to the sequential processItem, so the two
// drivers cannot drift.
func (x *expander) runPar(ctx context.Context, workers int) (*Result, error) {
	ph := x.orun.Phase(obs.PhaseExpand)
	defer ph.End()
	sp := newSpeculator(x, workers)
	defer sp.drainPanics()
	defer sp.shutdown()
	sp.dispatch() // the initial working list: one state fresh, many resumed
	for len(x.work) > 0 && x.res.Visits < x.maxVisits {
		if err := x.stopCheck(ctx); err != nil {
			x.stop(err)
			return x.res, nil
		}
		if err := x.maybeCheckpoint(); err != nil {
			return nil, err
		}
		a := x.popWork()
		memo := sp.take(a)
		stop := x.processItem(a, memo)
		if memo != nil {
			putItemMemo(memo)
		}
		if stop {
			return x.res, nil
		}
		sp.dispatch()
		sp.maybeSweep()
	}
	x.finishRun()
	return x.res, nil
}

// ExpandParallel is Expand with RunConfig.Workers set to workers, so
// workers > 1 selects the speculation pipeline (see Engine.Run and
// runPar); the results are bit-identical either way.
func ExpandParallel(p *fsm.Protocol, opts Options, workers int) (*Result, error) {
	opts.Workers = workers
	return Expand(p, opts)
}
