package main

import (
	"strings"
	"testing"

	"repro/internal/clitest"
	"repro/internal/runctl"
)

func TestParseBenchOutput(t *testing.T) {
	const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkFig2Exhaustive/n=7-8         	     184	   6310343 ns/op	       142.0 states	 2218396 B/op	   53008 allocs/op
BenchmarkParallelEnumeration/workers=8-8 	      13	  84033322 ns/op	       559700 allocs/op
BenchmarkFig3SymbolicExpansion/Illinois-8 	   27060	     43976 ns/op	        23.00 visits	   22552 B/op	     604 allocs/op
PASS
ok  	repro	30.490s
`
	got := parseBenchOutput(strings.NewReader(sample))
	if len(got) != 3 {
		t.Fatalf("parsed %d results, want 3", len(got))
	}
	first := got[0]
	if first.Name != "BenchmarkFig2Exhaustive/n=7-8" || first.Iters != 184 {
		t.Fatalf("unexpected first result: %+v", first)
	}
	if first.Metrics["ns/op"] != 6310343 || first.Metrics["states"] != 142.0 ||
		first.Metrics["B/op"] != 2218396 || first.Metrics["allocs/op"] != 53008 {
		t.Fatalf("unexpected metrics: %+v", first.Metrics)
	}
	if got[2].Metrics["visits"] != 23 {
		t.Fatalf("custom metric lost: %+v", got[2].Metrics)
	}
}

func TestParseBenchOutputSkipsGarbage(t *testing.T) {
	const sample = `BenchmarkBroken  notanumber  12 ns/op
Benchmark  1
random text
`
	if got := parseBenchOutput(strings.NewReader(sample)); len(got) != 0 {
		t.Fatalf("expected no results, got %+v", got)
	}
}

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestBadFlagExitCode pins the flag half of the exit-code contract on the
// real entry point: an unknown flag is a usage error, -h a clean exit.
func TestBadFlagExitCode(t *testing.T) {
	clitest.ExpectCode(t, runctl.ExitUsage, "-bogus")
	clitest.ExpectCode(t, runctl.ExitClean, "-h")
}
