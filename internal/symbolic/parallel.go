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

// expandItem precomputes every event expansion of one worklist state, in
// the exact (class, op) order processItem consumes them, together with
// the violation check of every generated successor (profiling shows the
// two together are ~80% of an expansion step; the serial merge keeps
// only the containment bookkeeping). It only reads the engine's
// immutable rule tables and the state, so concurrent calls on distinct
// states are race-free.
func (e *Engine) expandItem(a *CState, strict bool) []eventResult {
	out := getEventResults()
	for oi := 0; oi < a.NumClasses(); oi++ {
		if !a.reps[oi].CanBePositive() {
			continue
		}
		for k, op := range e.p.Ops {
			rules := e.eventTabs[oi][k]
			if len(rules) == 0 {
				continue
			}
			succs, err := e.expandEvent(a, oi, op, rules)
			er := eventResult{oi: oi, k: k, succs: succs, err: err}
			if len(succs) > 0 {
				er.viol = make([][]fsm.Violation, len(succs))
				for j, su := range succs {
					er.viol[j] = e.Check(su.State, strict)
				}
			}
			out = append(out, er)
		}
	}
	return out
}

// eventResultPool recycles the per-item memo buffers: each dispatched
// state gets one and the merge loop retires it as soon as the state is
// processed, so steady-state speculation reuses a small set.
var eventResultPool = sync.Pool{New: func() any { return new([]eventResult) }}

func getEventResults() []eventResult {
	return (*eventResultPool.Get().(*[]eventResult))[:0]
}

func putEventResults(m []eventResult) {
	for i := range m {
		m[i] = eventResult{} // drop the Succ states so the pool retains no CStates
	}
	eventResultPool.Put(&m)
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
	res  []eventResult
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
	for job := range sp.jobs {
		sp.runJob(w, job)
	}
}

func (sp *speculator) runJob(w int, job specJob) {
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
	job.fut.res = sp.x.e.expandItem(job.a, sp.x.opts.Strict)
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
func (sp *speculator) take(a *CState) []eventResult {
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
				putEventResults(fut.res)
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
			putEventResults(memo)
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
