package enum

import (
	"context"
	"testing"

	"repro/internal/protocols"
	"repro/internal/stateset"
)

// dragonReachable returns the codec of strict Dragon at n=9 and the
// representatives of every reachable state.
func dragonReachable(b *testing.B) (*keyCodec, [][]byte) {
	p := protocols.Dragon()
	const n = 9
	res, err := Run(context.Background(), p, n, Options{KeepReachable: true})
	if err != nil {
		b.Fatal(err)
	}
	kc, err := newKeyCodec(p, n, ModeStrict)
	if err != nil {
		b.Fatal(err)
	}
	reps := make([][]byte, len(res.Reachable))
	for i, c := range res.Reachable {
		reps[i] = kc.encode(c, nil)
	}
	return kc, reps
}

// BenchmarkExpandOne measures one expansion step of the Figure 2 engine —
// key steps, successor keys and visited-set membership — from every
// reachable state of strict Dragon at n=9. "known" probes a visited set
// that holds every reachable state, so every successor is a duplicate,
// the case that makes up about 95% of a large run's successors; "new"
// probes an empty set, so every distinct successor becomes a candidate
// (the worker's buffers are reset per step, as per level in a run). One
// op is one expansion step; states/s counts generated successors per
// second.
func BenchmarkExpandOne(b *testing.B) {
	kc, reps := dragonReachable(b)
	known := stateset.New(kc.w)
	for _, rep := range reps {
		known.Insert(rep)
	}
	for _, tc := range []struct {
		name string
		set  *stateset.Set
	}{{"known", known}, {"new", stateset.New(kc.w)}} {
		b.Run(tc.name, func(b *testing.B) {
			lw := newLevelWork(kc)
			succ := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lw.reset(0, 0)
				kc.expand(kc, tc.set, reps[i%len(reps)], 0, &lw)
				succ += lw.gen
			}
			b.ReportMetric(float64(succ)/b.Elapsed().Seconds(), "states/s")
		})
	}
}

// BenchmarkSuccessorKey measures the key step alone: one successor, which
// in strict mode is also its key, written from its parent for every
// (reachable state, cache, operation) of strict Dragon at n=9 that fires
// a rule. One op is one successor; states/s counts successors per second.
func BenchmarkSuccessorKey(b *testing.B) {
	kc, reps := dragonReachable(b)
	type move struct {
		parent []byte
		counts []int32
		i, k   int
	}
	var moves []move
	for _, rep := range reps {
		counts := make([]int32, kc.cp.NumStates)
		for i := 0; i < kc.n; i++ {
			counts[kc.cell(rep, i)>>2]++
		}
		for i := 0; i < kc.n; i++ {
			for k := 0; k < kc.cp.NumOps; k++ {
				if kc.cp.HasRules(kc.cell(rep, i)>>2, k) {
					moves = append(moves, move{rep, counts, i, k})
				}
			}
		}
	}
	next := make([]byte, kc.w)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := &moves[i%len(moves)]
		if _, err := successor[uint8](kc, m.parent, next, m.counts, m.i, m.k); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "states/s")
}
