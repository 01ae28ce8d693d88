package enum

import (
	"context"
	"testing"

	"repro/internal/compile"
	"repro/internal/protocols"
)

// BenchmarkExpandOne measures one expansion step of the Figure 2 engine —
// compiled steps, successor keys and visited-set membership — from every
// reachable configuration of strict Dragon at n=9. "known" probes a
// visited set that holds every reachable state, so every successor is a
// duplicate, the case that makes up about 95% of a large run's
// successors; "new" probes an empty set, so every successor is decoded
// into a named configuration. One op is one expansion step; states/s
// counts generated successors per second.
func BenchmarkExpandOne(b *testing.B) {
	p := protocols.Dragon()
	const n = 9
	res, err := Run(context.Background(), p, n, Options{KeepReachable: true})
	if err != nil {
		b.Fatal(err)
	}
	kc := newKeyCodec(p, n, ModeStrict)
	known, _ := newStores(kc, n)
	for _, c := range res.Reachable {
		known.insert(kc.key(c))
	}
	empty, _ := newStores(kc, n)
	for _, tc := range []struct {
		name string
		seen visitedStore
	}{{"known", known}, {"new", empty}} {
		b.Run(tc.name, func(b *testing.B) {
			out := new(workerOut)
			succ := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out.items = out.items[:0]
				expandOne(kc, false, tc.seen, res.Reachable[i%len(res.Reachable)], out)
				for _, it := range out.items {
					releaseConfig(it.cfg)
				}
				succ += len(out.items)
			}
			b.ReportMetric(float64(succ)/b.Elapsed().Seconds(), "states/s")
		})
	}
}

// BenchmarkSuccessorKey measures the key layer alone: compiledKey over
// the raw compiled successors of every reachable configuration of strict
// Dragon at n=9, exactly as expandOne keys them before membership. One
// op is one key; states/s counts keys per second.
func BenchmarkSuccessorKey(b *testing.B) {
	p := protocols.Dragon()
	const n = 9
	res, err := Run(context.Background(), p, n, Options{KeepReachable: true})
	if err != nil {
		b.Fatal(err)
	}
	kc := newKeyCodec(p, n, ModeStrict)
	var succs []compile.Config
	var base compile.Config
	for _, c := range res.Reachable {
		if err := kc.cp.Encode(c, &base); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for op := range p.Ops {
				var w compile.Config
				w.CopyFrom(&base)
				if _, err := kc.cp.Step(&w, i, op); err == nil {
					succs = append(succs, w)
				}
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var k Key
		kc.compiledKey(&k, &succs[i%len(succs)])
		keySink = k
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "states/s")
}

var keySink Key
