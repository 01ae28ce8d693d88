package enum

import (
	"context"
	"testing"

	"repro/internal/protocols"
)

// benchFig2 runs the Figure 2 exhaustive enumeration of Illinois at n=7
// through the selected expansion path. The compiled/interpreted pair is
// published by CI (BENCH_PR10.json) so the jump-table speedup is tracked
// release over release.
func benchFig2(b *testing.B, interpreted bool) {
	useInterpretedExpand = interpreted
	defer func() { useInterpretedExpand = false }()
	p := protocols.Illinois()
	b.ResetTimer()
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

func BenchmarkEnumFig2Compiled(b *testing.B)    { benchFig2(b, false) }
func BenchmarkEnumFig2Interpreted(b *testing.B) { benchFig2(b, true) }
