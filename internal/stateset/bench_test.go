package stateset

import (
	"math/rand"
	"testing"
)

// benchWidth is the key width of a 9-cache enumeration: one byte per
// cache plus the memory/marker byte.
const benchWidth = 10

// benchKeys returns count distinct keys shaped like the enumeration's
// packed keys: per-cache bytes of a 5-state protocol (state index in the
// high bits, one of three data classes in the low two) and a marker
// byte, so most keys share their first bytes as real runs do.
func benchKeys(rng *rand.Rand, count int) [][]byte {
	seen := make(map[string]bool, count)
	keys := make([][]byte, 0, count)
	for len(keys) < count {
		k := make([]byte, benchWidth)
		for i := 0; i < benchWidth-1; i++ {
			k[i] = byte(rng.Intn(5))<<2 | byte(rng.Intn(3))
		}
		k[benchWidth-1] = 0x80 | byte(rng.Intn(3))
		if !seen[string(k)] {
			seen[string(k)] = true
			keys = append(keys, k)
		}
	}
	return keys
}

const benchStates = 100000

// BenchmarkSetInsert measures admission as the engines perform it: a Has
// miss followed by Insert, into a set that starts empty and grows to
// benchStates entries (so the index growths are amortized into the
// per-state cost). One op is one admitted state.
func BenchmarkSetInsert(b *testing.B) {
	keys := benchKeys(rand.New(rand.NewSource(1)), benchStates)
	b.ReportAllocs()
	b.ResetTimer()
	var s *Set
	for i := 0; i < b.N; i++ {
		j := i % len(keys)
		if j == 0 {
			s = New(benchWidth)
		}
		if !s.Has(keys[j]) {
			s.Insert(keys[j])
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "states/s")
}

// BenchmarkSetRank measures membership against a set of benchStates
// entries: "hit" probes resident keys (the duplicate successors that
// dominate an enumeration), "miss" probes absent ones. One op is one
// lookup.
func BenchmarkSetRank(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	keys := benchKeys(rng, 2*benchStates)
	s := New(benchWidth)
	for _, k := range keys[:benchStates] {
		s.Insert(k)
	}
	for _, tc := range []struct {
		name   string
		probes [][]byte
		want   bool
	}{
		{"hit", keys[:benchStates], true},
		{"miss", keys[benchStates:], false},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := s.Rank(tc.probes[i%len(tc.probes)]); ok != tc.want {
					b.Fatalf("Rank membership %v, want %v", ok, tc.want)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "states/s")
		})
	}
}
