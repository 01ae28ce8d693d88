package enum

import (
	"testing"

	"repro/internal/fsm"
	"repro/internal/mutate"
	"repro/internal/protocols"
)

// TestWidePackedMatchesStringKeys pins the packed encoding between 32 and
// 63 caches, a range that used to take the string fallback: counting
// Dragon and MESI at n=40 and n=48, and the first Dragon mutant that
// counting enumeration refutes at n=40, must give identical Unique,
// Visits, TupleStates, verdicts and witness paths with packed keys and
// with the forced string path.
func TestWidePackedMatchesStringKeys(t *testing.T) {
	defer func() { testForceStringKeys = false }()
	run := func(p *fsm.Protocol, n int, forceStrings bool) *Result {
		t.Helper()
		testForceStringKeys = forceStrings
		defer func() { testForceStringKeys = false }()
		if got := newKeyCodec(p, n, ModeCounting).packed; got == forceStrings {
			t.Fatalf("%s n=%d: codec packed=%t with forced strings=%t", p.Name, n, got, forceStrings)
		}
		r, err := Counting(p, n, Options{Strict: true})
		if err != nil {
			t.Fatalf("%s n=%d strings=%t: %v", p.Name, n, forceStrings, err)
		}
		return r
	}
	check := func(p *fsm.Protocol, n int) *Result {
		t.Helper()
		packed, str := run(p, n, false), run(p, n, true)
		if got, want := resultSignature(packed), resultSignature(str); got != want {
			t.Fatalf("%s n=%d: packed path diverges from string path\npacked: %s\nstring: %s", p.Name, n, got, want)
		}
		return packed
	}
	for _, p := range []*fsm.Protocol{protocols.Dragon(), protocols.MESI()} {
		for _, n := range []int{40, 48} {
			if r := check(p, n); !r.OK() {
				t.Fatalf("%s n=%d: library protocol reported violations", p.Name, n)
			}
		}
	}
	for _, m := range mutate.Catalog(protocols.Dragon()) {
		if r := check(m.Protocol, 40); !r.OK() {
			return
		}
	}
	t.Fatal("no Dragon mutant is refuted by counting enumeration at n=40")
}
