package enum

import (
	"context"
	"testing"

	"repro/internal/protocols"
)

// BenchmarkEnumFig2Compiled runs the Figure 2 exhaustive enumeration of
// Illinois at n=7. CI publishes it (BENCH_PR10.json) so the enumeration's
// cost is tracked release over release.
func BenchmarkEnumFig2Compiled(b *testing.B) {
	p := protocols.Illinois()
	for i := 0; i < b.N; i++ {
		res, err := Run(context.Background(), p, 7, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Violations) != 0 {
			b.Fatal("illinois must verify clean")
		}
	}
}
