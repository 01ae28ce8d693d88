package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/clitest"
	"repro/internal/enum"
	"repro/internal/runctl"
)

func TestRunModes(t *testing.T) {
	for _, mode := range []string{"strict", "counting", "both"} {
		if code, err := run(context.Background(), "illinois", 3, cliOpts{mode: mode}); err != nil || code != 0 {
			t.Errorf("mode %s: code %d err %v", mode, code, err)
		}
	}
}

func TestRunStrictFlag(t *testing.T) {
	if code, err := run(context.Background(), "firefly", 2, cliOpts{mode: "both", strict: true}); err != nil || code != 0 {
		t.Fatalf("code %d err %v", code, err)
	}
}

func TestRunParallelWorkers(t *testing.T) {
	if code, err := run(context.Background(), "illinois", 3, cliOpts{mode: "both", workers: 4}); err != nil || code != 0 {
		t.Fatalf("code %d err %v", code, err)
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := run(context.Background(), "nonexistent", 2, cliOpts{mode: "both"}); err == nil {
		t.Error("unknown protocol must error")
	}
	if _, err := run(context.Background(), "illinois", 2, cliOpts{mode: "fancy"}); err == nil {
		t.Error("invalid mode must error")
	}
	if _, err := run(context.Background(), "illinois", 0, cliOpts{mode: "both"}); err == nil {
		t.Error("zero caches must error")
	}
	if _, err := run(context.Background(), "illinois", 3, cliOpts{mode: "both", checkpoint: "x.ckpt"}); err == nil {
		t.Error("-checkpoint with -mode both must error")
	}
	if _, err := run(context.Background(), "illinois", 3, cliOpts{mode: "strict", resume: "/does/not/exist.ckpt"}); err == nil {
		t.Error("missing resume file must error")
	}
}

// TestRunGraphOut exercises -graph-out end to end: a single-mode run writes
// the concrete transition diagram, twice-rendered files are byte-identical,
// and -mode both or a bad -graph-format are usage errors.
func TestRunGraphOut(t *testing.T) {
	dir := t.TempDir()
	dotPath := filepath.Join(dir, "g.dot")
	if code, err := run(context.Background(), "msi", 2, cliOpts{mode: "strict", graphOut: dotPath, graphFormat: "dot"}); err != nil || code != 0 {
		t.Fatalf("code %d err %v", code, err)
	}
	dot, err := os.ReadFile(dotPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(dot), `digraph "MSI"`) {
		t.Errorf("unexpected DOT:\n%s", dot)
	}
	jsonPath := filepath.Join(dir, "g.json")
	if code, err := run(context.Background(), "msi", 2, cliOpts{mode: "counting", graphOut: jsonPath, graphFormat: "json"}); err != nil || code != 0 {
		t.Fatalf("code %d err %v", code, err)
	}
	first, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(first), `"kind": "concrete"`) {
		t.Errorf("unexpected JSON:\n%s", first)
	}
	if code, err := run(context.Background(), "msi", 2, cliOpts{mode: "counting", graphOut: jsonPath, graphFormat: "json"}); err != nil || code != 0 {
		t.Fatalf("code %d err %v", code, err)
	}
	second, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Error("graph export is not deterministic across runs")
	}

	if _, err := run(context.Background(), "msi", 2, cliOpts{mode: "both", graphOut: dotPath}); err == nil {
		t.Error("-graph-out with -mode both must error")
	}
	if _, err := run(context.Background(), "msi", 2, cliOpts{mode: "strict", graphOut: dotPath, graphFormat: "svg"}); err == nil {
		t.Error("unknown -graph-format must error")
	}
}

// TestInterruptCheckpointResume is the CLI-level acceptance path: a run
// killed by its deadline writes a checkpoint, and resuming completes with
// state counts identical to an uninterrupted run.
func TestInterruptCheckpointResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")

	// Interrupt: an already-expired deadline stops the run immediately.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	code, err := run(ctx, "illinois", 4, cliOpts{mode: "strict", checkpoint: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	if code != 3 {
		t.Fatalf("interrupted run exit code %d, want 3", code)
	}
	cp, err := enum.LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatalf("no usable checkpoint written: %v", err)
	}
	if !strings.EqualFold(cp.Protocol, "illinois") || cp.N != 4 {
		t.Fatalf("checkpoint identifies %s/n=%d", cp.Protocol, cp.N)
	}

	// Resume must complete cleanly.
	code, err = run(context.Background(), "", 0, cliOpts{mode: "strict", resume: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("resumed run exit code %d, want 0", code)
	}
}

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestBadFlagExitCode pins the flag half of the exit-code contract on the
// real entry point: an unknown flag is a usage error, -h a clean exit.
func TestBadFlagExitCode(t *testing.T) {
	clitest.ExpectCode(t, runctl.ExitUsage, "-bogus")
	clitest.ExpectCode(t, runctl.ExitClean, "-h")
}
