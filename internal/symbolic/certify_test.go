package symbolic

import (
	"context"
	"testing"

	"repro/internal/mutate"
	"repro/internal/protocols"
)

// certifyClean certifies res when it is a complete clean verdict.
func certifyClean(t *testing.T, res *Result, strict bool) {
	t.Helper()
	if !res.OK() || res.Truncated {
		return
	}
	if err := Certify(res.Protocol, strict, res.Essential); err != nil {
		t.Error(err)
	}
}

// TestCertifyGoldenCorpus certifies every clean verdict of the expansion
// golden corpus: every spec, mutant and Synthetic(2..10), strict and not,
// with and without containment. TestExpandMatchesGolden shows the parallel
// driver's verdicts are the same.
func TestCertifyGoldenCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("full specs x mutants x synthetic sweep")
	}
	clean := 0
	for _, p := range goldenCorpus(t) {
		e, err := NewEngine(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for _, strict := range []bool{false, true} {
			for _, noCont := range []bool{false, true} {
				res, err := e.Run(context.Background(), Options{Strict: strict, NoContainment: noCont})
				if err != nil {
					t.Fatal(err)
				}
				if res.OK() {
					clean++
				}
				certifyClean(t, res, strict)
			}
		}
	}
	if clean == 0 {
		t.Fatal("no clean verdict in the corpus; nothing was certified")
	}
}

// TestCertifySynthetic certifies the clean verdicts of Synthetic(2..24),
// strict and not.
func TestCertifySynthetic(t *testing.T) {
	for k := 2; k <= 24; k++ {
		p, err := protocols.Synthetic(k)
		if err != nil {
			t.Fatal(err)
		}
		for _, strict := range []bool{false, true} {
			res, err := Expand(p, Options{Strict: strict})
			if err != nil {
				t.Fatal(err)
			}
			if !res.OK() || res.Truncated {
				t.Fatalf("%s strict=%t must verify clean", p.Name, strict)
			}
			if err := Certify(p, strict, res.Essential); err != nil {
				t.Errorf("strict=%t: %v", strict, err)
			}
		}
	}
}

// TestCertifyRejectsBrokenSets shows the certificate is not vacuous: it
// rejects Illinois's essential set with any one state dropped, the empty
// set, and the history list of every violating Illinois mutant.
func TestCertifyRejectsBrokenSets(t *testing.T) {
	p := protocols.Illinois()
	res, err := Expand(p, Options{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := Certify(p, true, res.Essential); err != nil {
		t.Fatalf("Illinois: %v", err)
	}
	if err := Certify(p, true, nil); err == nil {
		t.Error("the empty set was certified")
	}
	for i := range res.Essential {
		dropped := append(append([]*CState(nil), res.Essential[:i]...), res.Essential[i+1:]...)
		if err := Certify(p, true, dropped); err == nil {
			t.Errorf("the essential set without %s was certified", stateString(p, res.Essential[i]))
		}
	}
	violating := 0
	for _, m := range mutate.Catalog(p) {
		mres, err := Expand(m.Protocol, Options{Strict: true})
		if err != nil {
			t.Fatal(err)
		}
		if mres.OK() {
			continue
		}
		violating++
		if err := Certify(m.Protocol, true, mres.Essential); err == nil {
			t.Errorf("%s: the history list of a violating run was certified", m.Protocol.Name)
		}
	}
	if violating == 0 {
		t.Fatal("no Illinois mutant violates; the rejection sweep exercised nothing")
	}
}
