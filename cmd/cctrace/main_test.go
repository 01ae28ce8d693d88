package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/clitest"
	"repro/internal/fsm"
	"repro/internal/replay"
	"repro/internal/runctl"
	"repro/internal/sim"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestExitCodeContract drives the real entry point through every exit
// code a built-in protocol can produce: clean gen/replay/compare runs,
// usage errors, and a timeout-truncated replay.
func TestExitCodeContract(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "mig.trace")
	clitest.ExpectCode(t, runctl.ExitClean, "gen", "-workload", "migratory",
		"-caches", "4", "-blocks", "8", "-ops", "2000", "-o", trace)
	if fi, err := os.Stat(trace); err != nil || fi.Size() == 0 {
		t.Fatalf("gen wrote no trace: %v", err)
	}
	if r := clitest.ExpectCode(t, runctl.ExitClean, "replay", "-protocol", "mesi", trace); !strings.Contains(r.Stdout, "MESI") {
		t.Errorf("replay table does not name the protocol:\n%s", r.Stdout)
	}
	clitest.ExpectCode(t, runctl.ExitClean, "compare", "-protocols", "msi,mesi", "-json", filepath.Join(dir, "cmp.json"), trace)
	clitest.ExpectCode(t, runctl.ExitClean, "gen", "-h")

	clitest.ExpectCode(t, runctl.ExitUsage)
	clitest.ExpectCode(t, runctl.ExitUsage, "bogus")
	for _, sub := range []string{"gen", "replay", "compare"} {
		clitest.ExpectCode(t, runctl.ExitUsage, sub, "-bogus")
	}
	clitest.ExpectCode(t, runctl.ExitUsage, "replay", filepath.Join(dir, "missing.trace"))
	clitest.ExpectCode(t, runctl.ExitUsage, "replay", "-protocol", "no-such-protocol", trace)

	clitest.ExpectCode(t, runctl.ExitStopped, "replay", "-timeout", "1ns", trace)
}

// TestExitCodeFor covers the violation branch of the contract, which no
// built-in protocol reaches end to end: a stale read or a final-state
// violation exits 2 and outranks a truncation.
func TestExitCodeFor(t *testing.T) {
	viol := []fsm.Violation{{Kind: fsm.ViolationExclusive, Detail: "injected"}}
	for _, tc := range []struct {
		name string
		res  replay.Result
		want int
	}{
		{"clean", replay.Result{}, runctl.ExitClean},
		{"stale read", replay.Result{Stats: sim.Stats{StaleReads: 1}}, runctl.ExitViolation},
		{"final-state violation", replay.Result{Violations: viol}, runctl.ExitViolation},
		{"violation outranks truncation", replay.Result{Violations: viol, Truncated: true, StopReason: runctl.ErrDeadline}, runctl.ExitViolation},
		{"truncated", replay.Result{Truncated: true, StopReason: runctl.ErrDeadline}, runctl.ExitStopped},
	} {
		if got := exitCodeFor(&tc.res); got != tc.want {
			t.Errorf("%s: exit %d, want %d", tc.name, got, tc.want)
		}
	}
}
