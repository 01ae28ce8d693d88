package symbolic

import (
	"testing"

	"repro/internal/fsm"
	"repro/internal/protocols"
)

func violationKinds(vs []fsm.Violation) map[fsm.ViolationKind]int {
	out := map[fsm.ViolationKind]int{}
	for _, v := range vs {
		out[v.Kind]++
	}
	return out
}

func TestCheckPermissibleStates(t *testing.T) {
	e := illinoisEngine(t)
	res := e.Expand(Options{})
	for _, s := range res.Essential {
		if vs := e.Check(s, true); len(vs) != 0 {
			t.Errorf("essential state %s flagged: %v", s.StructureString(e.Protocol()), vs)
		}
	}
}

// TestCheckCleanStateAllocFree pins the invariant check's hot path: the
// invariant sets are resolved to state indexes once, in NewEngine, so
// checking a state with no violation allocates nothing.
func TestCheckCleanStateAllocFree(t *testing.T) {
	e := illinoisEngine(t)
	res := e.Expand(Options{Strict: true})
	if !res.OK() || len(res.Essential) == 0 {
		t.Fatalf("Illinois must verify cleanly: %d violations, %d essential", len(res.Violations), len(res.Essential))
	}
	for _, strict := range []bool{false, true} {
		allocs := testing.AllocsPerRun(100, func() {
			for _, s := range res.Essential {
				if e.Check(s, strict) != nil {
					t.Fatal("clean state flagged")
				}
			}
		})
		if allocs != 0 {
			t.Errorf("strict=%t: Check on clean states allocates %.1f times per pass, want 0", strict, allocs)
		}
	}
}

func TestCheckTwoDirtyCopies(t *testing.T) {
	e := illinoisEngine(t)
	s := mk(t, e,
		[]Rep{RStar, RZero, RZero, RPlus},
		[]Data{DNone, DNone, DNone, DFresh},
		CountMany, DObsolete)
	vs := e.Check(s, false)
	kinds := violationKinds(vs)
	if kinds[fsm.ViolationExclusive] == 0 {
		t.Fatalf("Dirty+ with copies≥2 must violate exclusivity, got %v", vs)
	}
	if kinds[fsm.ViolationOwners] == 0 {
		t.Fatalf("two owners must also be reported (matching the concrete checker), got %v", vs)
	}
}

func TestCheckDirtyBesideShared(t *testing.T) {
	e := illinoisEngine(t)
	s := mk(t, e,
		[]Rep{RStar, RZero, ROne, ROne},
		[]Data{DNone, DNone, DFresh, DFresh},
		CountMany, DObsolete)
	vs := e.Check(s, false)
	if violationKinds(vs)[fsm.ViolationExclusive] == 0 {
		t.Fatalf("Dirty beside Shared must violate exclusivity, got %v", vs)
	}
}

// TestCheckRespectsCopyCount: (Dirty*, Shared*) with exactly ONE copy can
// never actually pair a Dirty with a Shared cache, so it is permissible.
func TestCheckRespectsCopyCount(t *testing.T) {
	e := illinoisEngine(t)
	p := e.Protocol()
	reps := []Rep{RPlus, RZero, RStar, RStar}
	data := []Data{DNone, DNone, DFresh, DFresh}
	s, ok := e.MakeState(reps, data, CountOne, DFresh)
	if !ok {
		t.Fatal("state should be feasible")
	}
	for _, v := range e.Check(s, false) {
		if v.Kind == fsm.ViolationExclusive {
			t.Fatalf("copies=1 cannot pair two classes, but got %v (%s)",
				v, s.StructureString(p))
		}
	}
}

func TestCheckStaleReadableCopy(t *testing.T) {
	e := illinoisEngine(t)
	s := mk(t, e,
		[]Rep{RPlus, RZero, ROne, RZero},
		[]Data{DNone, DNone, DObsolete, DNone},
		CountOne, DFresh)
	vs := e.Check(s, false)
	if violationKinds(vs)[fsm.ViolationStaleRead] == 0 {
		t.Fatalf("an obsolete Shared copy must violate Definition 3, got %v", vs)
	}
}

func TestCheckNodataReadableCopy(t *testing.T) {
	// A readable class whose context variable says "nodata" is an anomaly
	// only mutated protocols produce; it must be flagged, not ignored.
	e := illinoisEngine(t)
	s := mk(t, e,
		[]Rep{RPlus, RZero, ROne, RZero},
		[]Data{DNone, DNone, DNone, DNone},
		CountOne, DFresh)
	vs := e.Check(s, false)
	if violationKinds(vs)[fsm.ViolationStaleRead] == 0 {
		t.Fatalf("a readable copy without data must be flagged, got %v", vs)
	}
}

func TestCheckCleanSharedStrictOnly(t *testing.T) {
	e := illinoisEngine(t)
	// A fresh Shared copy with obsolete memory: Illinois semantics say
	// Shared implies memory consistency, so strict mode flags it.
	s := mk(t, e,
		[]Rep{RPlus, RZero, ROne, RZero},
		[]Data{DNone, DNone, DFresh, DNone},
		CountOne, DObsolete)
	if vs := e.Check(s, false); len(vs) != 0 {
		t.Fatalf("non-strict check must not flag clean/memory mismatch: %v", vs)
	}
	vs := e.Check(s, true)
	if violationKinds(vs)[fsm.ViolationCleanShared] == 0 {
		t.Fatalf("strict check must flag clean/memory mismatch, got %v", vs)
	}
}

func TestCheckMultipleOwnersAcrossClasses(t *testing.T) {
	p := protocols.Berkeley()
	e, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	n := p.NumStates()
	reps := make([]Rep, n)
	data := make([]Data, n)
	reps[p.StateIndex("Invalid")] = RStar
	reps[p.StateIndex("Shared-Dirty")] = ROne
	data[p.StateIndex("Shared-Dirty")] = DFresh
	reps[p.StateIndex("Dirty")] = ROne
	data[p.StateIndex("Dirty")] = DFresh
	s, ok := e.MakeState(reps, data, CountNull, DObsolete)
	if !ok {
		t.Fatal("state should be feasible")
	}
	vs := e.Check(s, false)
	if violationKinds(vs)[fsm.ViolationOwners] == 0 {
		t.Fatalf("Dirty beside Shared-Dirty must violate single ownership, got %v", vs)
	}
}

func TestCheckOwnersPlusClass(t *testing.T) {
	p := protocols.Berkeley()
	e, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	n := p.NumStates()
	reps := make([]Rep, n)
	data := make([]Data, n)
	reps[p.StateIndex("Invalid")] = RStar
	reps[p.StateIndex("Shared-Dirty")] = RPlus
	data[p.StateIndex("Shared-Dirty")] = DFresh
	s, ok := e.MakeState(reps, data, CountNull, DObsolete)
	if !ok {
		t.Fatal("state should be feasible")
	}
	vs := e.Check(s, false)
	if violationKinds(vs)[fsm.ViolationOwners] == 0 {
		t.Fatalf("Shared-Dirty+ admits two owners and must be flagged, got %v", vs)
	}
}

func TestAbstractRejectsUnknownState(t *testing.T) {
	e := illinoisEngine(t)
	c := fsm.NewConfig(e.Protocol(), 2)
	c.States[0] = "Bogus"
	if _, err := e.Abstract(c); err == nil {
		t.Fatal("Abstract must reject unknown states")
	}
	if _, err := e.Abstract(&fsm.Config{}); err == nil {
		t.Fatal("Abstract must reject empty configurations")
	}
}

func TestAbstractIllinoisConfigurations(t *testing.T) {
	e := illinoisEngine(t)
	p := e.Protocol()
	c := fsm.NewConfig(p, 3)
	a, err := e.Abstract(c)
	if err != nil {
		t.Fatal(err)
	}
	if a.StructureString(p) != "(Invalid+)" || a.Attr() != CountZero {
		t.Fatalf("abstract initial = %s %v", a.StructureString(p), a.Attr())
	}

	c.States = []fsm.State{"Shared", "Shared", "Invalid"}
	c.Versions = []int64{0, 0, fsm.NoData}
	a, err = e.Abstract(c)
	if err != nil {
		t.Fatal(err)
	}
	if a.StructureString(p) != "(Invalid, Shared+)" || a.Attr() != CountMany {
		t.Fatalf("abstract = %s %v", a.StructureString(p), a.Attr())
	}
	if a.CData(p.StateIndex("Shared")) != DFresh {
		t.Fatal("version==latest must abstract to fresh")
	}

	c.Latest = 4 // the copies are now stale
	a, err = e.Abstract(c)
	if err != nil {
		t.Fatal(err)
	}
	if a.CData(p.StateIndex("Shared")) != DObsolete {
		t.Fatal("version<latest must abstract to obsolete")
	}
	if a.MData() != DObsolete {
		t.Fatal("stale memory must abstract to obsolete")
	}
}

func TestCoveredBy(t *testing.T) {
	e := illinoisEngine(t)
	res := e.Expand(Options{})
	init := e.Initial()
	got, ok := CoveredBy(init, res.Essential)
	if !ok || got == nil {
		t.Fatal("initial state must be covered")
	}
	// An impossible state is covered by nothing.
	s := mk(t, e,
		[]Rep{RStar, RZero, RZero, RPlus},
		[]Data{DNone, DNone, DNone, DFresh},
		CountMany, DObsolete)
	if _, ok := CoveredBy(s, res.Essential); ok {
		t.Fatal("a two-Dirty state must not be covered by Illinois essentials")
	}
}
