package enum_test

import (
	"testing"

	"repro/internal/campaign"
	"repro/internal/enum"
	"repro/internal/fsm"
	"repro/internal/mutate"
	"repro/internal/protocols"
)

// TestWideWitnessesConfirm checks witnesses rendered from packed keys at
// 40 caches, beyond the old 31-cache packing limit: for the first Dragon
// mutant that counting enumeration refutes at n=40, every PathStep.To
// must equal enum.CanonicalKey of the state reached by replaying the path
// through fsm.Step, and every witness must pass the campaign auditor.
func TestWideWitnessesConfirm(t *testing.T) {
	const n = 40
	for _, m := range mutate.Catalog(protocols.Dragon()) {
		p := m.Protocol
		res, err := enum.Counting(p, n, enum.Options{Strict: true})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if res.OK() {
			continue
		}
		for vi, v := range res.Violations {
			c := fsm.NewConfig(p, n)
			enum.Canonicalize(c)
			for si, step := range v.Path {
				if _, err := fsm.Step(p, c, step.Cache, step.Op); err != nil {
					t.Fatalf("%s violation %d step %d: %v", p.Name, vi, si, err)
				}
				enum.Canonicalize(c)
				want, err := enum.CanonicalKey(c, enum.ModeCounting)
				if err != nil {
					t.Fatal(err)
				}
				if step.To != want {
					t.Fatalf("%s violation %d step %d: witness key %q, replay reached %q", p.Name, vi, si, step.To, want)
				}
			}
			if ok, note := campaign.ConfirmEnumWitness(p, n, enum.ModeCounting, true, v); !ok {
				t.Fatalf("%s violation %d: witness not confirmed: %s", p.Name, vi, note)
			}
		}
		t.Logf("%s: %d witnesses confirmed at n=%d", p.Name, len(res.Violations), n)
		return
	}
	t.Fatal("no Dragon mutant is refuted by counting enumeration at n=40")
}
