package main

import (
	"context"
	"testing"
	"time"

	"repro/internal/clitest"
	"repro/internal/runctl"
)

func TestRunWorkloads(t *testing.T) {
	for _, wl := range []string{"uniform", "hot-block", "migratory", "producer-consumer"} {
		if code, err := run(context.Background(), "illinois", 4, 8, 4, wl, 5000, 1, 0.3, ""); err != nil || code != 0 {
			t.Errorf("workload %s: code %d err %v", wl, code, err)
		}
	}
}

func TestRunCrossCheckMode(t *testing.T) {
	if code, err := run(context.Background(), "msi", 0, 0, 0, "", 0, 0, 0, "2,3"); err != nil || code != 0 {
		t.Fatalf("code %d err %v", code, err)
	}
}

func TestRunErrors(t *testing.T) {
	ctx := context.Background()
	if _, err := run(ctx, "nonexistent", 4, 8, 4, "uniform", 100, 1, 0.3, ""); err == nil {
		t.Error("unknown protocol must error")
	}
	if _, err := run(ctx, "illinois", 4, 8, 4, "chaotic", 100, 1, 0.3, ""); err == nil {
		t.Error("unknown workload must error")
	}
	if _, err := run(ctx, "illinois", 0, 8, 4, "uniform", 100, 1, 0.3, ""); err == nil {
		t.Error("zero caches must error")
	}
	if _, err := run(ctx, "illinois", 4, 8, 4, "uniform", 100, 1, 0.3, "x"); err == nil {
		t.Error("bad crosscheck must error")
	}
}

// TestRunTimeoutStops checks that an expired deadline converts into exit
// code 3 rather than an error, for both the simulation and the cross-check
// paths.
func TestRunTimeoutStops(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if code, err := run(ctx, "illinois", 4, 8, 4, "uniform", 5000, 1, 0.3, ""); err != nil || code != 3 {
		t.Errorf("simulation under expired deadline: code %d err %v, want 3 nil", code, err)
	}
	if code, err := run(ctx, "msi", 0, 0, 0, "", 0, 0, 0, "2"); err != nil || code != 3 {
		t.Errorf("cross-check under expired deadline: code %d err %v, want 3 nil", code, err)
	}
}

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestBadFlagExitCode pins the flag half of the exit-code contract on the
// real entry point: an unknown flag is a usage error, -h a clean exit.
func TestBadFlagExitCode(t *testing.T) {
	clitest.ExpectCode(t, runctl.ExitUsage, "-bogus")
	clitest.ExpectCode(t, runctl.ExitClean, "-h")
}
