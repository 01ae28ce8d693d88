package enum

import (
	"math/rand"
	"testing"
)

// BenchmarkVisitedStoreBytes inserts the same random packed-key
// population into the compact hash-indexed store and the legacy
// map-backed store, and reports the resident bytes per state of each —
// the metric behind the out-of-core work. The compact layout holds
// width+4 bytes per state plus its index slots, against the map's
// ~240-byte entries; the bytes/state columns of the two sub-benchmarks
// are the compression ratio.
func BenchmarkVisitedStoreBytes(b *testing.B) {
	const n = 8           // caches: width n+1 = 9 bytes per packed key
	const states = 200000 // population size, comparable to a mid-size Fig. 2 run
	rng := rand.New(rand.NewSource(1))
	seen := make(map[Key]bool, states)
	keys := make([]Key, 0, states)
	for len(keys) < states {
		var k Key
		for i := 0; i < n; i++ {
			k.packed[i] = byte(1 + rng.Intn(62))
		}
		k.packed[n] = byte(rng.Intn(3))
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	for _, impl := range []struct {
		name string
		mk   func() visitedStore
	}{
		{"compact", func() visitedStore { return newCompactStore(n) }},
		{"legacy-map", func() visitedStore { return newMapStore() }},
	} {
		b.Run(impl.name, func(b *testing.B) {
			b.ReportAllocs()
			var perState float64
			for i := 0; i < b.N; i++ {
				st := impl.mk()
				for _, k := range keys {
					st.insert(k)
				}
				perState = float64(st.bytes()) / float64(st.size())
			}
			b.ReportMetric(perState, "bytes/state")
		})
	}
}
