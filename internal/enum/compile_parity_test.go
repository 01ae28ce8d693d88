package enum

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/ccpsl"
	"repro/internal/fsm"
	"repro/internal/mutate"
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
		fmt.Fprintf(&b, "violation %s:", v.Config)
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
		fmt.Fprintf(&b, "reach %s\n", c)
	}
	return b.String()
}

// TestCompiledExpandMatchesInterpreted runs full enumerations — strict and
// counting, at n=3, violations and reachable sets retained — over every
// shipped spec and every mutant, once through the compiled jump tables and
// once through the interpreted fsm.Step reference path, and requires the
// rendered results to be byte-identical. This is the engine-level half of
// the compile-parity pin; the per-step half lives in internal/compile.
func TestCompiledExpandMatchesInterpreted(t *testing.T) {
	if testing.Short() {
		t.Skip("full specs x mutants sweep")
	}
	const n = 3
	opts := Options{KeepReachable: true}
	for _, p := range parityCorpus(t) {
		for _, mode := range []string{ModeStrict, ModeCounting} {
			runOne := func(interpreted bool) string {
				useInterpretedExpand = interpreted
				defer func() { useInterpretedExpand = false }()
				opts.Mode = mode
				res, err := Run(context.Background(), p, n, opts)
				if err != nil {
					t.Fatalf("%s %s (interpreted=%v): %v", p.Name, mode, interpreted, err)
				}
				return renderResult(res)
			}
			compiled, interpreted := runOne(false), runOne(true)
			if compiled != interpreted {
				t.Errorf("%s %s: compiled expansion diverges from interpreted:\ncompiled:\n%s\ninterpreted:\n%s",
					p.Name, mode, compiled, interpreted)
			}
		}
	}
}
