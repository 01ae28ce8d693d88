package enum

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/ccpsl"
	"repro/internal/fsm"
	"repro/internal/mutate"
	"repro/internal/protocols"
	"repro/internal/randproto"
)

// parityCorpus returns every shipped spec plus every mutant of it.
func parityCorpus(t *testing.T) []*fsm.Protocol {
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

// renderResult flattens everything observable about a run — counts,
// violations with their full witness paths, spec errors and the reachable
// set in discovery order — into one string, so two runs can be compared
// byte for byte.
func renderResult(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "unique=%d visits=%d tuples=%d truncated=%v\n",
		res.Unique, res.Visits, res.TupleStates, res.Truncated)
	for _, v := range res.Violations {
		fmt.Fprintf(&b, "violation %s:", v.Config.Key())
		for _, viol := range v.Violations {
			fmt.Fprintf(&b, " [%s]", viol.Error())
		}
		for _, s := range v.Path {
			fmt.Fprintf(&b, " %s%d->%s", s.Op, s.Cache, s.To)
		}
		b.WriteByte('\n')
	}
	for _, err := range res.SpecErrors {
		fmt.Fprintf(&b, "specerr %v\n", err)
	}
	for _, c := range res.Reachable {
		fmt.Fprintf(&b, "reach %s\n", c.Key())
	}
	return b.String()
}

// step is successor instantiated for the codec's cell width.
func step(kc *keyCodec, parent, next []byte, counts []int32, i, k int) (bool, error) {
	if kc.cb == 2 {
		return successor[uint16](kc, parent, next, counts, i, k)
	}
	return successor[uint8](kc, parent, next, counts, i, k)
}

// TestKeyStepMatchesOracle checks the key step against fsm.Step, the
// independent reference semantics, over seeded random protocols, every
// spec and mutant, and Synthetic(64) (two-byte cells), in both modes:
// from every reachable state, for every (cache, operation), the
// successor's representative must equal that of
// Canonicalize(fsm.Step(decode(parent))), a spec error must carry the
// same text, and the flag-table invariant check must agree with
// fsm.CheckConfig with and without the strict extension.
func TestKeyStepMatchesOracle(t *testing.T) {
	type oracleCase struct {
		p *fsm.Protocol
		n int
	}
	var cases []oracleCase
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cases = append(cases, oracleCase{randproto.New(rng, 1+rng.Intn(4)), 2 + rng.Intn(3)})
	}
	for _, p := range parityCorpus(t) {
		cases = append(cases, oracleCase{p, 3})
	}
	wide, err := protocols.Synthetic(64)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, oracleCase{wide, 2})
	for _, tc := range cases {
		p, n := tc.p, tc.n
		for _, mode := range []string{ModeStrict, ModeCounting} {
			res, err := Run(context.Background(), p, n, Options{Mode: mode, KeepReachable: true})
			if err != nil {
				t.Fatal(err)
			}
			kc, err := newKeyCodec(p, n, mode)
			if err != nil {
				t.Fatal(err)
			}
			next := make([]byte, kc.w)
			for _, c := range res.Reachable {
				parent := kc.encode(c, nil)
				counts := make([]int32, kc.cp.NumStates)
				for i := 0; i < n; i++ {
					counts[kc.cell(parent, i)>>2]++
				}
				for i := 0; i < n; i++ {
					for k, op := range p.Ops {
						label := func() string {
							return fmt.Sprintf("%s %s n=%d: cache %d %s from %s", p.Name, mode, n, i, op, c.Key())
						}
						fired, err := step(kc, parent, next, counts, i, k)
						want := c.Clone()
						_, werr := fsm.Step(p, want, i, op)
						Canonicalize(want)
						switch {
						case err != nil || werr != nil:
							if fmt.Sprint(err) != fmt.Sprint(werr) {
								t.Fatalf("%s: key step error %v, fsm.Step error %v", label(), err, werr)
							}
							continue
						case !fired:
							if want.Key() != c.Key() {
								t.Fatalf("%s: key step reports a no-op, fsm.Step reached %s", label(), want.Key())
							}
							continue
						}
						if wrep := kc.encode(want, nil); !bytes.Equal(next, wrep) {
							t.Fatalf("%s: key step reached %s, fsm.Step %s", label(), kc.decode(next).Key(), want.Key())
						}
						if got, _ := CanonicalKey(want, mode); kc.render(kc.keyOf(next, nil)) != got {
							t.Fatalf("%s: key renders %q, want %q", label(), kc.render(kc.keyOf(next, nil)), got)
						}
						for _, strict := range []bool{false, true} {
							if got, want := kc.clean(next, strict), len(fsm.CheckConfig(p, want, strict)) == 0; got != want {
								t.Fatalf("%s: flag-table check says clean=%t, fsm.CheckConfig clean=%t (strict=%t)", label(), got, want, strict)
							}
						}
					}
				}
			}
		}
	}
}
