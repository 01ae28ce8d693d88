package symbolic

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/fsm"
	"repro/internal/protocols"
	"repro/internal/randproto"
	"repro/internal/runctl"
)

// memoAudit confirms every skipped verdict of processItem with the full
// query while it is installed as testMemoHook.
type memoAudit struct {
	hits int
	fail string // the first unconfirmed hit
}

func (m *memoAudit) hook(x *expander, a, ap *CState, rec *keyRecord) {
	m.hits++
	if m.fail != "" {
		return
	}
	p := x.e.p
	switch {
	case rec.state == nil || rec.state.Key() != ap.Key():
		m.fail = fmt.Sprintf("record of %s interns a different state", ap.Key())
	case x.opts.NoContainment && !rec.queued:
		m.fail = fmt.Sprintf("repeated key %s was never queued", ap.Key())
	case !x.opts.NoContainment && !Contains(a, ap) && !x.inWork(ap) && !x.inHist(ap):
		m.fail = fmt.Sprintf("repeated key %s is contained in none of the item, W and H", stateString(p, ap))
	case !rec.reported && len(x.e.Check(ap, x.opts.Strict)) > 0:
		m.fail = fmt.Sprintf("repeated key %s fails Check but was never reported", stateString(p, ap))
	}
}

// auditMemo installs a fresh audit as testMemoHook for the test's duration.
func auditMemo(t *testing.T) *memoAudit {
	t.Helper()
	m := &memoAudit{}
	testMemoHook = m.hook
	t.Cleanup(func() { testMemoHook = nil })
	return m
}

// check fails the test on an unconfirmed hit.
func (m *memoAudit) check(t *testing.T, what string) {
	t.Helper()
	if m.fail != "" {
		t.Fatalf("%s: %s", what, m.fail)
	}
}

// TestMemoHitsConfirmedByFullQuery pins the invariant processItem's
// short-circuit rests on: a key visited again is contained in the current
// item, W or H (or was queued, under NoContainment), and passes Check
// unless it was reported. Every spec, mutant and Synthetic(2..10), strict
// and not, with and without containment, at 0, 1 and 2 workers.
func TestMemoHitsConfirmedByFullQuery(t *testing.T) {
	if testing.Short() {
		t.Skip("full specs x mutants x synthetic sweep")
	}
	m := auditMemo(t)
	for _, p := range goldenCorpus(t) {
		e, err := NewEngine(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for _, strict := range []bool{false, true} {
			for _, noCont := range []bool{false, true} {
				for _, workers := range []int{0, 1, 2} {
					_, err := e.Run(context.Background(), Options{
						Strict: strict, NoContainment: noCont,
						RunConfig: runctl.RunConfig{Workers: workers},
					})
					if err != nil {
						t.Fatal(err)
					}
					m.check(t, fmt.Sprintf("%s strict=%t nocont=%t workers=%d", p.Name, strict, noCont, workers))
				}
			}
		}
	}
	if m.hits == 0 {
		t.Fatal("no repeated key was visited; the audit exercised nothing")
	}
}

// TestMemoHitsConfirmedRandproto extends the audit to 300 random
// protocols, many of them violating.
func TestMemoHitsConfirmedRandproto(t *testing.T) {
	m := auditMemo(t)
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 300; round++ {
		p := randproto.New(rng, 1+rng.Intn(3))
		for _, strict := range []bool{false, true} {
			if _, err := Expand(p, Options{Strict: strict, MaxVisits: 50000}); err != nil {
				t.Fatal(err)
			}
			m.check(t, fmt.Sprintf("round %d %s strict=%t", round, p.Name, strict))
		}
	}
	if m.hits == 0 {
		t.Fatal("no repeated key was visited; the audit exercised nothing")
	}
}

// TestMemoHitsConfirmedAfterResume audits runs resumed from mid-run
// checkpoints, whose rebuilt records start without an interned state:
// the committed fixtures and a budget-stopped Synthetic(6), with
// and without containment, through both drivers.
func TestMemoHitsConfirmedAfterResume(t *testing.T) {
	type resumeCase struct {
		name string
		p    *fsm.Protocol
		cp   *Checkpoint
	}
	var cases []resumeCase
	for _, fx := range checkpointFixtures {
		cp, err := LoadCheckpoint(filepath.Join("testdata", fx.file))
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, resumeCase{fx.file, fx.protocol(t), cp})
	}
	p, err := protocols.Synthetic(6)
	if err != nil {
		t.Fatal(err)
	}
	for _, noCont := range []bool{false, true} {
		res, err := Expand(p, Options{
			NoContainment: noCont,
			RunConfig:     runctl.RunConfig{Budget: runctl.Budget{MaxStates: 60}, CheckpointOnStop: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Checkpoint == nil {
			t.Fatalf("nocont=%t: the state budget did not stop the run", noCont)
		}
		cases = append(cases, resumeCase{fmt.Sprintf("synthetic6 nocont=%t", noCont), p, res.Checkpoint})
	}

	m := auditMemo(t)
	for _, c := range cases {
		for _, workers := range []int{0, 2} {
			e, err := NewEngine(c.p)
			if err != nil {
				t.Fatal(err)
			}
			hits := m.hits
			res, err := e.Run(context.Background(), Options{Resume: c.cp, RunConfig: runctl.RunConfig{Workers: workers}})
			if err != nil {
				t.Fatal(err)
			}
			m.check(t, fmt.Sprintf("%s workers=%d", c.name, workers))
			if m.hits == hits {
				t.Errorf("%s workers=%d: the resumed run revisited no key", c.name, workers)
			}
			if res.OK() {
				if err := Certify(c.p, c.cp.Strict, res.Essential); err != nil {
					t.Errorf("%s workers=%d: %v", c.name, workers, err)
				}
			}
		}
	}
}

// TestMemoAllocsPerDistinctKey pins what the memo buys: a repeated key
// allocates nothing, so a sequential Synthetic(24) run allocates at most
// three times per distinct key (the state struct and its key, plus the
// amortized record slab, map and list growth), although it visits each
// key about five times.
func TestMemoAllocsPerDistinctKey(t *testing.T) {
	p, err := protocols.Synthetic(24)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	x := e.startExpander(Options{})
	res, err := x.run(context.Background())
	if err != nil || !res.OK() {
		t.Fatalf("Synthetic(24) must verify clean: %v", err)
	}
	keys := len(x.recs)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := e.Run(context.Background(), Options{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Synthetic(24): %d visits, %d distinct keys, %.0f allocs per run", res.Visits, keys, allocs)
	if allocs > float64(3*keys) {
		t.Errorf("%.0f allocs per run, want at most 3 x %d distinct keys = %d", allocs, keys, 3*keys)
	}
}
