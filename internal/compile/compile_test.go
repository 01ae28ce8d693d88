package compile

import (
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/ccpsl"
	"repro/internal/fsm"
	"repro/internal/mutate"
)

// specProtocol loads one shipped spec by file name. The specs are pinned
// in sync with the built-in Go definitions, so this package's tests read
// them directly rather than going through the protocols registry.
func specProtocol(t testing.TB, name string) *fsm.Protocol {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "specs", name+".ccpsl"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := ccpsl.Parse(string(src))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return p
}

// corpus returns every shipped spec plus every mutant of it — the full
// population the compile-parity guarantees are pinned over.
func corpus(t testing.TB) []*fsm.Protocol {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.ccpsl"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no specs found: %v", err)
	}
	sort.Strings(paths)
	var out []*fsm.Protocol
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ccpsl.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out = append(out, p)
		for _, m := range mutate.Catalog(p) {
			out = append(out, m.Protocol)
		}
	}
	return out
}

// TestStepParity drives the interpreted fsm.Step and the compiled Step
// through identical random walks over every spec and every mutant,
// asserting identical configurations, step results and error text after
// every reference. This is the ground truth the engine-level parity suites
// (enum, symbolic) build on.
func TestStepParity(t *testing.T) {
	for _, p := range corpus(t) {
		cp, err := Compile(p)
		if err != nil {
			t.Fatalf("%s: compile: %v", p.Name, err)
		}
		rng := rand.New(rand.NewSource(int64(len(p.Name)) * 7919))
		for _, n := range []int{1, 2, 4} {
			ic := fsm.NewConfig(p, n)
			cc := cp.NewConfig(n)
			for step := 0; step < 400; step++ {
				origin := rng.Intn(n)
				op := p.Ops[rng.Intn(len(p.Ops))]
				iw := ic.Clone()
				ires, ierr := fsm.Step(p, iw, origin, op)
				cw := &Config{}
				cw.CopyFrom(cc)
				cres, cerr := cp.Step(cw, origin, cp.OpIndex(op))
				if (ierr == nil) != (cerr == nil) {
					t.Fatalf("%s n=%d step %d: error mismatch: interpreted=%v compiled=%v", p.Name, n, step, ierr, cerr)
				}
				if ierr != nil {
					if ierr.Error() != cerr.Error() {
						t.Fatalf("%s n=%d step %d: error text drift:\n  interpreted: %s\n  compiled:    %s",
							p.Name, n, step, ierr, cerr)
					}
					continue // both paths leave their configs unchanged
				}
				got := cp.Result(cres)
				if got.ReadVersion != ires.ReadVersion || got.Supplier != ires.Supplier ||
					(got.Rule == nil) != (ires.Rule == nil) ||
					(got.Rule != nil && got.Rule.Name != ires.Rule.Name) {
					t.Fatalf("%s n=%d step %d: result mismatch: interpreted=%+v compiled=%+v", p.Name, n, step, ires, got)
				}
				var back fsm.Config
				cp.Decode(cw, &back)
				if back.Key() != iw.Key() {
					t.Fatalf("%s n=%d step %d (%s@%d): config drift:\n  interpreted: %s\n  compiled:    %s",
						p.Name, n, step, op, origin, iw.Key(), back.Key())
				}
				ic, cc = iw, cw
			}
		}
	}
}

// TestEncodeDecodeIdentity asserts Encode∘Decode is the identity on
// configurations reached by real walks.
func TestEncodeDecodeIdentity(t *testing.T) {
	p := specProtocol(t, "illinois")
	cp, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	ic := fsm.NewConfig(p, 3)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		if _, err := fsm.Step(p, ic, rng.Intn(3), p.Ops[rng.Intn(len(p.Ops))]); err != nil {
			t.Fatal(err)
		}
		var enc Config
		if err := cp.Encode(ic, &enc); err != nil {
			t.Fatal(err)
		}
		var dec fsm.Config
		cp.Decode(&enc, &dec)
		if dec.Key() != ic.Key() {
			t.Fatalf("round trip drift: %s vs %s", ic.Key(), dec.Key())
		}
	}
}

// TestJumpTablesMatchRulesFor pins the compiled dispatch against the
// interpreted index for every (state, op) pair of every protocol.
func TestJumpTablesMatchRulesFor(t *testing.T) {
	for _, p := range corpus(t) {
		cp, err := Compile(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for si, s := range p.States {
			for oi, op := range p.Ops {
				want := p.RulesFor(s, op)
				got := cp.RuleIDs(si, oi)
				if len(want) != len(got) {
					t.Fatalf("%s (%s,%s): %d interpreted rules vs %d compiled", p.Name, s, op, len(want), len(got))
				}
				for k, r := range want {
					if cp.RulePtr(got[k]) != r {
						t.Fatalf("%s (%s,%s): rule %d order drift", p.Name, s, op, k)
					}
				}
			}
		}
	}
}
