package enum

import (
	"fmt"
	"testing"

	"repro/internal/fsm"
	"repro/internal/protocols"
)

// TestParallelMatchesSequential: the level-synchronous BFS must be
// observationally identical at every worker count — same distinct states,
// same visit count, same tuple census. Levels are split down to one state
// per worker, so the small runs here really fan out.
func TestParallelMatchesSequential(t *testing.T) {
	forceSplit(t)
	for _, name := range []string{"illinois", "dragon", "berkeley"} {
		p, err := protocols.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{2, 4, 6} {
			seq, err := Exhaustive(p, n, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 4, 8} {
				par, err := ExhaustiveParallel(p, n, Options{}, workers)
				if err != nil {
					t.Fatal(err)
				}
				if par.Unique != seq.Unique || par.Visits != seq.Visits ||
					par.TupleStates != seq.TupleStates {
					t.Errorf("%s n=%d workers=%d: parallel (%d/%d/%d) != sequential (%d/%d/%d)",
						name, n, workers,
						par.Unique, par.Visits, par.TupleStates,
						seq.Unique, seq.Visits, seq.TupleStates)
				}
			}
		}
	}
}

func TestParallelCountingMatchesSequential(t *testing.T) {
	forceSplit(t)
	p := protocols.Illinois()
	seq, err := Counting(p, 8, Options{KeepReachable: true})
	if err != nil {
		t.Fatal(err)
	}
	par, err := CountingParallel(p, 8, Options{KeepReachable: true}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if par.Unique != seq.Unique || par.Visits != seq.Visits {
		t.Fatalf("parallel counting diverged: %d/%d vs %d/%d",
			par.Unique, par.Visits, seq.Unique, seq.Visits)
	}
	if len(par.Reachable) != len(seq.Reachable) {
		t.Fatalf("reachable sets differ in size")
	}
	for i := range par.Reachable {
		if countingKey(par.Reachable[i]) != countingKey(seq.Reachable[i]) {
			t.Fatalf("reachable order diverged at %d", i)
		}
	}
}

func TestParallelFindsViolations(t *testing.T) {
	forceSplit(t)
	p := brokenIllinois()
	seq, err := Exhaustive(p, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := ExhaustiveParallel(p, 3, Options{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Violations) != len(seq.Violations) {
		t.Fatalf("parallel found %d violations, sequential %d",
			len(par.Violations), len(seq.Violations))
	}
	if len(par.Violations) == 0 {
		t.Fatal("broken protocol must be refuted")
	}
	// Witness paths must still replay.
	v := par.Violations[0]
	if len(v.Path) == 0 {
		t.Fatal("missing witness")
	}
}

func TestParallelStopOnViolation(t *testing.T) {
	forceSplit(t)
	p := brokenIllinois()
	par, err := ExhaustiveParallel(p, 3, Options{StopOnViolation: true}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Violations) != 1 {
		t.Fatalf("want exactly one violation, got %d", len(par.Violations))
	}
}

func TestParallelTruncation(t *testing.T) {
	forceSplit(t)
	par, err := ExhaustiveParallel(protocols.Illinois(), 6, Options{MaxStates: 10}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !par.Truncated {
		t.Fatal("cap must truncate")
	}
}

func TestParallelArgumentChecks(t *testing.T) {
	if _, err := ExhaustiveParallel(protocols.Illinois(), 0, Options{}, 4); err == nil {
		t.Error("n=0 must be rejected")
	}
	// workers <= 0 selects GOMAXPROCS and must still work.
	if _, err := ExhaustiveParallel(protocols.Illinois(), 2, Options{}, 0); err != nil {
		t.Errorf("workers=0 must default, got %v", err)
	}
	if _, err := ExhaustiveParallel(protocols.Illinois(), 2, Options{}, -1); err != nil {
		t.Errorf("workers=-1 must default, got %v", err)
	}
}

// specGapIllinois is brokenIllinois with two spec errors added: a guard
// gap (no read-miss rule fires when another cache is Dirty and none is
// Shared or Valid-Exclusive) and a missing supplier (a write miss served
// by caches names only Shared, so a lone Valid-Exclusive copy supplies
// nothing).
func specGapIllinois() *fsm.Protocol {
	p := brokenIllinois()
	rules := p.Rules[:0]
	for _, r := range p.Rules {
		switch r.Name {
		case "read-miss-dirty-owner":
			continue
		case "write-miss-from-cache":
			r.Data.Suppliers = []fsm.State{protocols.IllShared}
		}
		rules = append(rules, r)
	}
	p.Rules = rules
	return p.Clone()
}

// TestSpecErrorsAtStopMatchAcrossWorkers stops runs of a protocol with
// spec errors and violations mid-level, on the first violation and on the
// state cap, and requires the same SpecErrors and Visits at 1 and 3
// workers: exactly the errors met before the stopping successor, a prefix
// of the uninterrupted run's.
func TestSpecErrorsAtStopMatchAcrossWorkers(t *testing.T) {
	forceSplit(t)
	p := specGapIllinois()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	const n = 4
	full, err := Exhaustive(p, n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.SpecErrors) == 0 || len(full.Violations) == 0 {
		t.Fatalf("want spec errors and violations, got %d and %d", len(full.SpecErrors), len(full.Violations))
	}
	for _, tc := range []struct {
		name string
		opts Options
	}{{"stop-on-violation", Options{StopOnViolation: true}}, {"state-cap", Options{MaxStates: full.Unique / 2}}} {
		opts := tc.opts
		var ref *Result
		for _, workers := range []int{1, 3} {
			res, err := ExhaustiveParallel(p, n, opts, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Truncated && len(res.Violations) == len(full.Violations) {
				t.Fatalf("%s: the run did not stop early", tc.name)
			}
			for i, e := range res.SpecErrors {
				if i >= len(full.SpecErrors) || e.Error() != full.SpecErrors[i].Error() {
					t.Fatalf("%s workers=%d: spec error %d %q is not the uninterrupted run's", tc.name, workers, i, e)
				}
			}
			if ref == nil {
				ref = res
				continue
			}
			if got, want := fmt.Sprint(res.SpecErrors), fmt.Sprint(ref.SpecErrors); got != want || res.Visits != ref.Visits {
				t.Fatalf("%s: workers=3 reports %d spec errors and %d visits, workers=1 %d and %d",
					tc.name, len(res.SpecErrors), res.Visits, len(ref.SpecErrors), ref.Visits)
			}
		}
	}
}
