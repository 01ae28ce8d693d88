package main

import (
	"testing"

	"repro/internal/clitest"
	"repro/internal/runctl"
)

// TestRunnersExecute drives every experiment runner end to end, except the
// heavyweight complexity/workload sweeps which are covered (with smaller
// parameters) by the internal/experiments tests.
func TestRunnersExecute(t *testing.T) {
	runners := map[string]func() error{
		"fig1":      runFig1,
		"fig4":      runFig4,
		"fig4table": runFig4Table,
		"a2":        runA2,
		"suite":     runSuite,
		"mutants":   runMutants,
	}
	for name, f := range runners {
		name, f := name, f
		t.Run(name, func(t *testing.T) {
			if err := f(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestExperimentTableComplete(t *testing.T) {
	want := map[string]bool{
		"fig1": true, "fig4": true, "fig4table": true, "a2": true,
		"complexity": true, "suite": true, "mutants": true,
		"scaling": true, "workloads": true, "falsesharing": true,
	}
	if len(allExperiments) != len(want) {
		t.Fatalf("experiment table has %d entries, want %d", len(allExperiments), len(want))
	}
	for _, e := range allExperiments {
		if !want[e.name] {
			t.Errorf("unexpected experiment %q", e.name)
		}
		if e.desc == "" || e.run == nil {
			t.Errorf("experiment %q incomplete", e.name)
		}
	}
}

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestBadFlagExitCode pins the flag half of the exit-code contract on the
// real entry point: an unknown flag is a usage error, -h a clean exit.
func TestBadFlagExitCode(t *testing.T) {
	clitest.ExpectCode(t, runctl.ExitUsage, "-bogus")
	clitest.ExpectCode(t, runctl.ExitClean, "-h")
}
