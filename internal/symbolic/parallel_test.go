package symbolic

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/protocols"
	"repro/internal/randproto"
	"repro/internal/runctl"
)

// symSignature flattens everything a symbolic Result asserts about the
// protocol: every counter, the Essential list in order, the violations
// with their witness paths, and the visit log when recorded. Two runs
// with equal signatures are observationally identical.
func symSignature(r *Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "visits=%d expansions=%d superseded=%d contained=%d evicted=%d specErrs=%d estBytes=%d\n",
		r.Visits, r.Expansions, r.Superseded, r.Contained, r.Evicted, len(r.SpecErrors), r.EstBytes)
	for _, s := range r.Essential {
		sb.WriteString(s.Key())
		sb.WriteByte('\n')
	}
	for _, v := range r.Violations {
		fmt.Fprintf(&sb, "viol %s:", v.State.Key())
		for _, d := range v.Violations {
			fmt.Fprintf(&sb, " [%d %s]", d.Kind, d.Detail)
		}
		for _, ps := range v.Path {
			fmt.Fprintf(&sb, " (%s -> %s)", ps.Label, ps.To.Key())
		}
		sb.WriteByte('\n')
	}
	for _, lr := range r.Log {
		fmt.Fprintf(&sb, "log %s %s %s %s %s\n", lr.From.Key(), lr.Label, lr.Rule, lr.To.Key(), lr.Outcome)
	}
	return sb.String()
}

// TestParallelExpandMatchesSequential pins the headline property of the
// parallel driver: over every bundled protocol and several worker
// counts, the speculative engine must be bit-identical to the
// sequential one — same essential states in the same order, same
// counters, same violations, witness paths and visit log.
func TestParallelExpandMatchesSequential(t *testing.T) {
	for _, p := range protocols.All() {
		opts := Options{Strict: true, RecordLog: true}
		seq, err := Expand(p, opts)
		if err != nil {
			t.Fatalf("%s: sequential: %v", p.Name, err)
		}
		want := symSignature(seq)
		for _, workers := range []int{1, 2, 4, 8} {
			par, err := ExpandParallel(p, opts, workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", p.Name, workers, err)
			}
			if len(par.WorkerErrors) != 0 {
				t.Fatalf("%s workers=%d: unexpected worker errors: %v", p.Name, workers, par.WorkerErrors[0])
			}
			if got := symSignature(par); got != want {
				t.Errorf("%s workers=%d: parallel expansion diverges from sequential\npar: %s\nseq: %s",
					p.Name, workers, got, want)
			}
		}
	}
}

// TestRunPicksDriver pins Engine.Run's driver choice through the
// speculation workers' test hook: Workers 0 or 1 runs the sequential loop
// (no speculation job) and Workers 2 the parallel pipeline, with
// bit-identical results.
func TestRunPicksDriver(t *testing.T) {
	p, err := protocols.Synthetic(4)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	want := symSignature(e.Expand(Options{}))
	var jobs atomic.Int64
	testWorkerHook = func(job, worker int) { jobs.Add(1) }
	defer func() { testWorkerHook = nil }()
	for _, tc := range []struct {
		workers  int
		parallel bool
	}{{0, false}, {1, false}, {2, true}} {
		jobs.Store(0)
		res, err := e.Run(context.Background(), Options{RunConfig: runctl.RunConfig{Workers: tc.workers}})
		if err != nil {
			t.Fatal(err)
		}
		if got := jobs.Load() > 0; got != tc.parallel {
			t.Errorf("workers=%d: %d speculation jobs, want parallel=%t", tc.workers, jobs.Load(), tc.parallel)
		}
		if got := symSignature(res); got != want {
			t.Errorf("workers=%d: result diverges from Expand\ngot: %s\nwant: %s", tc.workers, got, want)
		}
	}
}

// TestParallelExpandRandprotoSweep extends the parity property to random
// well-formed protocols, including ill-behaved ones whose expansions
// produce violations and spec errors, in both pruning variants.
func TestParallelExpandRandprotoSweep(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randproto.New(rng, 1+rng.Intn(4))
		for _, noContain := range []bool{false, true} {
			opts := Options{Strict: true, RecordLog: true, NoContainment: noContain}
			seq, err := Expand(p, opts)
			if err != nil {
				t.Fatalf("seed %d: sequential: %v", seed, err)
			}
			par, err := ExpandParallel(p, opts, 4)
			if err != nil {
				t.Fatalf("seed %d: parallel: %v", seed, err)
			}
			if got, want := symSignature(par), symSignature(seq); got != want {
				t.Errorf("seed %d noContainment=%t: parallel diverges\npar: %s\nseq: %s",
					seed, noContain, got, want)
			}
		}
	}
}

// TestParallelWorkerPanicRecovered injects a panic into the speculation
// worker expanding the second dispatched state: the run must survive,
// record the panic in WorkerErrors, and still produce results
// bit-identical to the sequential engine (the affected state is
// re-expanded inline).
func TestParallelWorkerPanicRecovered(t *testing.T) {
	p, err := protocols.Synthetic(4)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Strict: true, RecordLog: true}
	seq, err := Expand(p, opts)
	if err != nil {
		t.Fatal(err)
	}

	fired := false
	testWorkerHook = func(job, worker int) {
		if job == 1 && !fired {
			fired = true
			panic("injected speculation panic")
		}
	}
	defer func() { testWorkerHook = nil }()

	par, err := ExpandParallel(p, opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("the test hook never fired; the run dispatched fewer speculation jobs than expected")
	}
	if len(par.WorkerErrors) != 1 {
		t.Fatalf("want exactly one recorded worker panic, got %d", len(par.WorkerErrors))
	}
	we := par.WorkerErrors[0]
	if we.Job != 1 || !strings.Contains(we.Value, "injected speculation panic") {
		t.Fatalf("worker error misattributed: %+v", we)
	}
	if !strings.Contains(we.Error(), "panicked expanding speculation job 1") {
		t.Fatalf("unexpected error rendering: %v", we)
	}
	if got, want := symSignature(par), symSignature(seq); got != want {
		t.Fatalf("panic recovery changed the results\npar: %s\nseq: %s", got, want)
	}
}

// TestParallelResumeRoundTrip interrupts a sequential run at a periodic
// checkpoint, resumes it with the parallel driver (and vice versa), and
// requires both to land on the uninterrupted run's results: checkpoints
// are driver-portable in both directions.
func TestParallelResumeRoundTrip(t *testing.T) {
	p, err := protocols.Synthetic(4)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	// Contained, Evicted and the log are documented as not preserved
	// across checkpoint/resume, so the round-trip comparison covers
	// everything else: the counters, the Essential list and violations.
	resumeSignature := func(r *Result) string {
		var sb strings.Builder
		fmt.Fprintf(&sb, "visits=%d expansions=%d superseded=%d specErrs=%d estBytes=%d\n",
			r.Visits, r.Expansions, r.Superseded, len(r.SpecErrors), r.EstBytes)
		for _, s := range r.Essential {
			sb.WriteString(s.Key())
			sb.WriteByte('\n')
		}
		for _, v := range r.Violations {
			fmt.Fprintf(&sb, "viol %s\n", v.State.Key())
		}
		return sb.String()
	}

	full, err := e.Run(context.Background(), Options{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	want := resumeSignature(full)

	capture := func(parallel bool) *Checkpoint {
		t.Helper()
		var cp *Checkpoint
		stop := fmt.Errorf("captured")
		opts := Options{Strict: true}
		opts.RunConfig.CheckpointEvery = 5
		opts.OnCheckpoint = func(c *Checkpoint) error {
			cp = c
			return stop
		}
		if parallel {
			opts.Workers = 4
		}
		_, err := e.Run(context.Background(), opts)
		if err != stop {
			t.Fatalf("interrupted run (parallel=%t) ended with %v, want the injected stop", parallel, err)
		}
		if cp == nil {
			t.Fatal("no checkpoint captured")
		}
		return cp
	}

	// Sequential checkpoint → parallel resume.
	res, err := e.Run(context.Background(), Options{Resume: capture(false), RunConfig: runctl.RunConfig{Workers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if got := resumeSignature(res); got != want {
		t.Fatalf("parallel resume of a sequential checkpoint diverges\ngot: %s\nwant: %s", got, want)
	}

	// Parallel checkpoint → sequential resume.
	res, err = e.Run(context.Background(), Options{Resume: capture(true)})
	if err != nil {
		t.Fatal(err)
	}
	if got := resumeSignature(res); got != want {
		t.Fatalf("sequential resume of a parallel checkpoint diverges\ngot: %s\nwant: %s", got, want)
	}
}
