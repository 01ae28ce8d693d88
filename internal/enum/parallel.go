package enum

import (
	"fmt"
	"runtime/debug"
	"sync"

	"repro/internal/compile"
	"repro/internal/fsm"
	"repro/internal/stateset"
)

// ExhaustiveParallel is Exhaustive with RunConfig.Workers set to
// workers: up to that many workers expand each BFS level (see Run); the
// result is bit-for-bit identical at every worker count.
func ExhaustiveParallel(p *fsm.Protocol, n int, opts Options, workers int) (*Result, error) {
	opts.Workers = workers
	return Exhaustive(p, n, opts)
}

// CountingParallel is the counting-equivalence variant of ExhaustiveParallel.
func CountingParallel(p *fsm.Protocol, n int, opts Options, workers int) (*Result, error) {
	opts.Workers = workers
	return Counting(p, n, opts)
}

// WorkerError records a panic recovered in a BFS level worker, the one
// on the calling goroutine included. The worker's frontier slice is
// re-expanded on the calling goroutine after the recovery, rebuilding its
// candidate list from scratch, so a transient panic leaves the run's
// results bit-for-bit identical; a panic that persists in the retry is
// additionally surfaced as a SpecError and the slice's successors are
// dropped from the level.
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

// ordErr is a spec error tagged with the number of successors its worker
// had generated in the level when it occurred, so a mid-level stop keeps
// exactly the errors the sequential algorithm would have met.
type ordErr struct {
	ord int
	err error
}

// expandOne generates the successors of the representative parent,
// admitted at rank, into lw; level workers call it for every state they
// expand. One pass over the parent per (cache, operation) writes each
// successor (see successor), keyed in place. A successor already in the
// committed visited set (read-only during a level, so the read is
// lock-free) or generated earlier by this worker is only counted; the
// others become candidates, in generation order. Under counting
// equivalence only the first cache of each cell value is expanded, since
// its siblings yield permutations of its successors.
func expandOne[T cellInt](kc *keyCodec, visited *stateset.Set, parent []byte, rank uint32, lw *levelWork) {
	counting := kc.mode == ModeCounting
	for j := 0; j < kc.n; j++ {
		lw.counts[getCell[T](parent, j)>>2]++
	}
	next, key := lw.next, lw.next
	for i := 0; i < kc.n; i++ {
		if counting {
			x := getCell[T](parent, i)
			if lw.shadow[x] {
				continue
			}
			lw.shadow[x] = true
		}
		for k := 0; k < kc.cp.NumOps; k++ {
			fired, err := successor[T](kc, parent, next, lw.counts, i, k)
			if err != nil {
				lw.errs = append(lw.errs, ordErr{lw.gen, err})
			}
			if !fired {
				continue
			}
			lw.gen++
			if counting {
				key = append(lw.key[:0], next...)
				sortCells[T](key, kc.n)
			}
			if visited.Has(key) || lw.local.Has(key) {
				continue
			}
			lw.local.Insert(key)
			lw.cands = append(lw.cands, candidate{parent: rank, cache: i, op: k, ord: lw.gen})
			lw.reps = append(lw.reps, next...)
			lw.keys = append(lw.keys, key...)
		}
	}
	for j := 0; j < kc.n; j++ {
		x := getCell[T](parent, j)
		lw.counts[x>>2], lw.shadow[x] = 0, false
	}
}

// successor writes into next the representative that results when cache
// i applies operation k in parent, and reports whether a rule fired
// (false: the operation is a no-op in the cache's state). counts holds
// the parent's state occupancy. It computes Canonicalize ∘ fsm.Step on
// cells: the first rule whose guard holds over the other caches fires;
// a cache source is the lowest-index other cache in the first supplier
// state present; the other caches move through the rule's cell map, and
// the originator and the memory through its class table. A spec error
// carries fsm.Step's text.
func successor[T cellInt](kc *keyCodec, parent, next []byte, counts []int32, i, k int) (bool, error) {
	cp := kc.cp
	pc := getCell[T](parent, i)
	si := int32(pc >> 2)
	ids := cp.RuleIDs(int(si), k)
	if len(ids) == 0 {
		return false, nil
	}
	var r *compile.Rule
	for _, id := range ids {
		c := &cp.Rules[id]
		if c.GuardKind == fsm.GuardAlways ||
			c.GuardKind == fsm.GuardAnyOther && othersIn(c.GuardStates, counts, si) ||
			c.GuardKind == fsm.GuardNoOther && !othersIn(c.GuardStates, counts, si) {
			r = c
			break
		}
	}
	if r == nil {
		return false, fmt.Errorf("fsm: protocol %s: no guard matched for cache %d in state %s on %s of %s",
			cp.Src.Name, i, cp.States[si], cp.Ops[k], kc.decode(parent))
	}
	var sc T
	if r.Source == fsm.SrcCache {
		sup := -1
		for _, ss := range r.Suppliers {
			if c := counts[ss]; c == 0 || c == 1 && ss == si {
				continue
			}
			for sup = 0; sup == i || int32(getCell[T](parent, sup)>>2) != ss; sup++ {
			}
			break
		}
		if sup < 0 {
			src := cp.Src.Rules[r.ID]
			return false, fmt.Errorf("fsm: protocol %s: rule %s fired with no supplier in %v for %s",
				cp.Src.Name, src.Name, src.Data.Suppliers, kc.decode(parent))
		}
		sc = getCell[T](parent, sup) & 3
	}
	obs := kc.obs[int(r.ID)*kc.nc:][:kc.nc]
	for j := 0; j < kc.n; j++ {
		putCell(next, j, T(obs[getCell[T](parent, j)]))
	}
	d := kc.data[int(r.ID)*27+int(pc&3)*9+int(parent[kc.w-1])*3+int(sc)]
	putCell(next, i, T(r.Next)<<2|T(d&3))
	next[kc.w-1] = d >> 2
	return true, nil
}

// othersIn reports whether a cache other than the originator, which is
// in state si, is in one of states.
func othersIn(states, counts []int32, si int32) bool {
	for _, s := range states {
		c := counts[s]
		if s == si {
			c--
		}
		if c > 0 {
			return true
		}
	}
	return false
}

// candidate is a successor a level worker found new: in neither the
// committed visited set nor the worker's level-local set. Its
// representative and key are the matching entries of the worker's reps
// and keys slabs.
type candidate struct {
	// parent is the admission rank of the expanded state; cache and op
	// the acting cache and operation index.
	parent    uint32
	cache, op int
	// viol holds the invariant violations, checked inside the worker.
	viol []fsm.Violation
	// ord is the successor's 1-based position among all successors the
	// worker generated this level, its contribution to Visits on a stop.
	ord int
	// spilled and tupleDup are set by spillFilter: the key, or only the
	// state tuple, already lives in a spill file.
	spilled, tupleDup bool
}

// levelWork is one worker's share of a level: the frontier slice
// [lo, hi) it expands and what the expansion produced. The run keeps one
// per worker and reuses its buffers from level to level.
type levelWork struct {
	lo, hi int
	cands  []candidate
	// reps and keys hold the candidates' representatives and keys.
	reps, keys []byte
	gen        int // successors generated: the worker's share of Visits
	errs       []ordErr
	panic      *WorkerError
	// local holds the keys of the candidates.
	local *stateset.Set
	// counts[s] is the number of caches in state s in the state being
	// expanded, shadow[x] marks the cell values expanded already under
	// counting equivalence; expandOne zeroes both again before it
	// returns. next and key hold the successor being built.
	counts    []int32
	shadow    []bool
	next, key []byte
}

func newLevelWork(kc *keyCodec) levelWork {
	return levelWork{
		local:  stateset.New(kc.w),
		counts: make([]int32, kc.cp.NumStates),
		shadow: make([]bool, kc.nc),
		next:   make([]byte, kc.w),
		key:    make([]byte, kc.w),
	}
}

// reset readies lw to expand frontier[lo:hi].
func (lw *levelWork) reset(lo, hi int) {
	lw.lo, lw.hi = lo, hi
	lw.cands, lw.reps, lw.keys = lw.cands[:0], lw.reps[:0], lw.keys[:0]
	lw.gen, lw.errs, lw.panic = 0, lw.errs[:0], nil
	lw.local.Reset()
	// A panic can leave expandOne's scratch dirty.
	clear(lw.counts)
	clear(lw.shadow)
}

// entry returns the i-th w-byte entry of a slab.
func entry(slab []byte, i, w int) []byte { return slab[i*w : (i+1)*w] }

// defaultMinWorkerStates is the least number of frontier states worth a
// worker of its own. Expanding a state costs a few microseconds, so
// below this a level's goroutine hand-off and the extra level-local set
// cost more than the split saves.
const defaultMinWorkerStates = 64

// minWorkerStates is the split threshold in effect; tests lower it so
// that the small levels of small runs are split too.
var minWorkerStates = defaultMinWorkerStates

// testWorkerHook, when set by tests, runs at the start of each worker's
// first attempt at its slice (not in the retry after a panic), which is
// how the tests inject worker panics.
var testWorkerHook func(level, worker int)

// expandLevel expands one level. The frontier is cut into contiguous
// slices, one per worker, with at least minWorkerStates states each;
// worker 0 runs on the calling goroutine and the others on their own.
// Each worker is isolated: a panic is recorded as a WorkerError and the
// slice expanded again on the calling goroutine.
func (b *bfs) expandLevel(level int, f *frontier, workers int) []levelWork {
	size := f.len()
	nw := max(1, min(workers, size/minWorkerStates))
	chunk := (size + nw - 1) / nw
	for len(b.work) < nw {
		b.work = append(b.work, newLevelWork(b.kc))
	}
	work := b.work[:nw]
	attempt := func(w int) {
		lw := &work[w]
		defer func() {
			if r := recover(); r != nil {
				lw.panic = &WorkerError{
					Level: level, Worker: w,
					Value: fmt.Sprint(r),
					Stack: string(debug.Stack()),
				}
			}
		}()
		if testWorkerHook != nil {
			testWorkerHook(level, w)
		}
		b.expandSlice(f, lw)
	}
	var wg sync.WaitGroup
	for w := range work {
		lo := min(w*chunk, size)
		work[w].reset(lo, min(lo+chunk, size))
		if w > 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				attempt(w)
			}()
		}
	}
	attempt(0)
	wg.Wait()
	for w := range work {
		lw := &work[w]
		if lw.panic == nil {
			continue
		}
		b.res.WorkerErrors = append(b.res.WorkerErrors, lw.panic)
		b.orun.Event("worker_panics_total", 1)
		func() {
			defer func() {
				if r := recover(); r != nil {
					lw.reset(lw.lo, lw.hi)
					b.res.SpecErrors = append(b.res.SpecErrors, fmt.Errorf(
						"enum: panic persisted in retry of level %d slice [%d:%d]: %v",
						level, lw.lo, lw.hi, r))
				}
			}()
			lw.reset(lw.lo, lw.hi)
			b.expandSlice(f, lw)
		}()
	}
	return work
}

// expandSlice is the body of one level worker: it expands its frontier
// slice through expandOne and checks the invariants of the candidates
// here rather than on the reconcile thread. The flag table passes almost
// every state; only the others are decoded for fsm.CheckConfig's
// violation text.
func (b *bfs) expandSlice(f *frontier, lw *levelWork) {
	kc, w := b.kc, b.kc.w
	first := len(lw.cands)
	for r := lw.lo; r < lw.hi; r++ {
		kc.expand(kc, b.visited, entry(f.reps, r, w), f.ranks[r], lw)
	}
	for i := first; i < len(lw.cands); i++ {
		if rep := entry(lw.reps, i, w); !kc.clean(rep, b.opts.Strict) {
			lw.cands[i].viol = fsm.CheckConfig(b.p, kc.decode(rep), b.opts.Strict)
		}
	}
}
