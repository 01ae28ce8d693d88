package enum

import (
	"math/rand"
	"testing"

	"repro/internal/stateset"
)

// BenchmarkVisitedStoreBytes inserts a random population of packed keys
// into the visited set and reports its resident bytes per state, the
// metric behind the out-of-core work: width+4 bytes per state plus its
// index slots.
func BenchmarkVisitedStoreBytes(b *testing.B) {
	const n = 8           // caches: width n+1 = 9 bytes per packed key
	const states = 200000 // population size, comparable to a mid-size Fig. 2 run
	rng := rand.New(rand.NewSource(1))
	seen := make(map[string]bool, states)
	keys := make([][]byte, 0, states)
	for len(keys) < states {
		k := make([]byte, n+1)
		for i := 0; i < n; i++ {
			k[i] = byte(1 + rng.Intn(62))
		}
		k[n] = byte(rng.Intn(3))
		if !seen[string(k)] {
			seen[string(k)] = true
			keys = append(keys, k)
		}
	}
	b.ReportAllocs()
	var perState float64
	for i := 0; i < b.N; i++ {
		st := stateset.New(n + 1)
		for _, k := range keys {
			st.Insert(k)
		}
		perState = float64(st.Bytes()) / float64(st.Len())
	}
	b.ReportMetric(perState, "bytes/state")
}
