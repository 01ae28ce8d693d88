package sim

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/protocols"
	"repro/internal/runctl"
	"repro/internal/trace"
)

func TestRunCanceled(t *testing.T) {
	m, err := New(Config{Protocol: protocols.Illinois(), Caches: 4, Blocks: 8})
	if err != nil {
		t.Fatal(err)
	}
	w, err := trace.NewUniform(1, 4, 8, 0.3, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	stats, err := m.Run(ctx, w, 100000)
	if !errors.Is(err, runctl.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if stats.Ops != 0 {
		t.Fatalf("pre-canceled run executed %d ops", stats.Ops)
	}
}

func TestRunDeadlineMidRun(t *testing.T) {
	m, err := New(Config{Protocol: protocols.Illinois(), Caches: 4, Blocks: 8})
	if err != nil {
		t.Fatal(err)
	}
	w, err := trace.NewUniform(2, 4, 8, 0.3, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(5*time.Millisecond))
	defer cancel()
	// Effectively unbounded op count: only the deadline can end the run.
	stats, err := m.Run(ctx, w, 1<<40)
	if !errors.Is(err, runctl.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if stats.Ops == 0 {
		t.Fatal("run should have made progress before the deadline")
	}
	// The machine must be left in a coherent state.
	if v := m.CheckInvariants(); len(v) != 0 {
		t.Fatalf("invariant violations after interrupted run: %v", v)
	}
}
