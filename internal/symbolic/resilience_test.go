package symbolic

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/protocols"
	"repro/internal/runctl"
)

func essentialKeys(r *Result) []string {
	out := make([]string, len(r.Essential))
	for i, s := range r.Essential {
		out[i] = s.Key()
	}
	return out
}

func sameRun(t *testing.T, got, want *Result, label string) {
	t.Helper()
	if got.Visits != want.Visits || got.Expansions != want.Expansions || got.Superseded != want.Superseded {
		t.Fatalf("%s: visits/expansions/superseded = %d/%d/%d, want %d/%d/%d", label,
			got.Visits, got.Expansions, got.Superseded,
			want.Visits, want.Expansions, want.Superseded)
	}
	if !reflect.DeepEqual(essentialKeys(got), essentialKeys(want)) {
		t.Fatalf("%s: essential states diverged:\n%v\n%v", label, essentialKeys(got), essentialKeys(want))
	}
	if len(got.Violations) != len(want.Violations) {
		t.Fatalf("%s: %d violations, want %d", label, len(got.Violations), len(want.Violations))
	}
}

func TestRunCancel(t *testing.T) {
	p := protocols.Illinois()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(ctx, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || !errors.Is(res.StopReason, runctl.ErrCanceled) {
		t.Fatalf("truncated=%v stop=%v, want truncated with ErrCanceled", res.Truncated, res.StopReason)
	}
}

func TestRunDeadline(t *testing.T) {
	p := protocols.Illinois()
	res, err := Expand(p, Options{
		RunConfig: runctl.RunConfig{Budget: runctl.Budget{Deadline: time.Now().Add(-time.Second)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || !errors.Is(res.StopReason, runctl.ErrDeadline) {
		t.Fatalf("truncated=%v stop=%v, want truncated with ErrDeadline", res.Truncated, res.StopReason)
	}
}

func TestExpandStateBudget(t *testing.T) {
	p := protocols.Illinois()
	full, err := Expand(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Expand(p, Options{
		RunConfig: runctl.RunConfig{Budget: runctl.Budget{MaxStates: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || !errors.Is(res.StopReason, runctl.ErrStateBudget) {
		t.Fatalf("truncated=%v stop=%v, want truncated with ErrStateBudget", res.Truncated, res.StopReason)
	}
	if res.Visits >= full.Visits {
		t.Fatalf("budgeted run visited %d, full run %d", res.Visits, full.Visits)
	}
}

func TestExpandMemBudget(t *testing.T) {
	p := protocols.Illinois()
	res, err := Expand(p, Options{
		RunConfig: runctl.RunConfig{Budget: runctl.Budget{MaxBytes: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || !errors.Is(res.StopReason, runctl.ErrMemBudget) {
		t.Fatalf("truncated=%v stop=%v, want truncated with ErrMemBudget", res.Truncated, res.StopReason)
	}
}

func TestMaxVisitsSetsStopReason(t *testing.T) {
	p := protocols.Illinois()
	res, err := Expand(p, Options{MaxVisits: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Visits > 5 {
		t.Fatalf("visit cap exceeded: %d", res.Visits)
	}
	if !res.Truncated || !errors.Is(res.StopReason, runctl.ErrStateBudget) {
		t.Fatalf("truncated=%v stop=%v, want truncated with ErrStateBudget", res.Truncated, res.StopReason)
	}
	if res.Checkpoint != nil {
		t.Fatal("mid-step visit-cap stop must not carry a checkpoint")
	}
}

// TestSymbolicCheckpointResume interrupts an expansion with a state budget,
// resumes it from the checkpoint, and asserts the completed run matches an
// uninterrupted one exactly (same essential states, same counters).
func TestSymbolicCheckpointResume(t *testing.T) {
	for _, name := range []string{"illinois", "berkeley", "firefly"} {
		t.Run(name, func(t *testing.T) {
			p, err := protocols.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			full, err := Expand(p, Options{})
			if err != nil {
				t.Fatal(err)
			}
			partial, err := Expand(p, Options{
				RunConfig: runctl.RunConfig{Budget: runctl.Budget{MaxStates: 4}, CheckpointOnStop: true},
			})
			if err != nil {
				t.Fatal(err)
			}
			if partial.Checkpoint == nil {
				t.Fatal("no checkpoint on budget stop")
			}

			// Round-trip through the JSON codec before resuming, so the test
			// covers what a process restart would exercise.
			data, err := partial.Checkpoint.Encode()
			if err != nil {
				t.Fatal(err)
			}
			cp, err := DecodeCheckpoint(data)
			if err != nil {
				t.Fatal(err)
			}

			e, err := NewEngine(p)
			if err != nil {
				t.Fatal(err)
			}
			resumed, err := e.Run(context.Background(), Options{Resume: cp})
			if err != nil {
				t.Fatal(err)
			}
			if resumed.Truncated {
				t.Fatal("resumed run must complete")
			}
			sameRun(t, resumed, full, "resumed vs uninterrupted")
		})
	}
}

func TestSymbolicPeriodicCheckpoint(t *testing.T) {
	p := protocols.Illinois()
	var last *Checkpoint
	count := 0
	full, err := Expand(p, Options{
		RunConfig: runctl.RunConfig{CheckpointEvery: 2},
		OnCheckpoint: func(cp *Checkpoint) error {
			last = cp
			count++
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if count == 0 || last == nil {
		t.Fatal("periodic checkpoints never fired")
	}
	e, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := e.Run(context.Background(), Options{Resume: last})
	if err != nil {
		t.Fatal(err)
	}
	sameRun(t, resumed, full, "resume from periodic checkpoint")
}

func TestSymbolicResumeValidation(t *testing.T) {
	p := protocols.Illinois()
	partial, err := Expand(p, Options{
		RunConfig: runctl.RunConfig{Budget: runctl.Budget{MaxStates: 4}, CheckpointOnStop: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	good := partial.Checkpoint
	e, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		mutate func(cp *Checkpoint)
	}{
		{"wrong version", func(cp *Checkpoint) { cp.Version = 9 }},
		{"wrong protocol", func(cp *Checkpoint) { cp.Protocol = "other" }},
		{"bad state index", func(cp *Checkpoint) { cp.Work[0] = 1000 }},
		{"bad rep value", func(cp *Checkpoint) { cp.States[0].Reps[0] = 77 }},
		{"torn state", func(cp *Checkpoint) { cp.States[0].Cdata = nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data, err := good.Encode()
			if err != nil {
				t.Fatal(err)
			}
			cp, err := DecodeCheckpoint(data)
			if err != nil {
				t.Fatal(err)
			}
			tc.mutate(cp)
			if _, err := e.Run(context.Background(), Options{Resume: cp}); err == nil {
				t.Fatal("corrupted checkpoint was accepted")
			}
		})
	}

	if _, err := DecodeCheckpoint([]byte("{")); err == nil {
		t.Fatal("garbage accepted")
	}
}
