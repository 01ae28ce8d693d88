package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/protocols"
	"repro/internal/runctl"
)

func TestFig1HasFullIllinoisRuleSet(t *testing.T) {
	l, err := Fig1()
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Edges) != 15 {
		t.Fatalf("Figure 1 diagram has %d edges, want 15 (one per rule)", len(l.Edges))
	}
}

func TestFig4HeadlineNumbers(t *testing.T) {
	r, err := Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Graph.Nodes) != 5 {
		t.Fatalf("essential states = %d, paper says 5", len(r.Graph.Nodes))
	}
	if v := r.Report.Symbolic.Visits; v != 23 {
		t.Fatalf("visits = %d, expected 23 (paper: 22, see EXPERIMENTS.md)", v)
	}
	if len(r.Report.Symbolic.Log) == 0 {
		t.Fatal("Fig4 must record the expansion log for A.2")
	}
}

func TestComplexityGrowthShape(t *testing.T) {
	p := protocols.Illinois()
	rows, err := Complexity(p, []int{2, 3, 4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].StrictStates <= rows[i-1].StrictStates {
			t.Errorf("strict states must grow with n: %+v", rows)
		}
		if rows[i].StrictVisits <= rows[i-1].StrictVisits {
			t.Errorf("strict visits must grow with n: %+v", rows)
		}
		if rows[i].SymbolicStates != rows[0].SymbolicStates ||
			rows[i].SymbolicVisits != rows[0].SymbolicVisits {
			t.Errorf("symbolic cost must be independent of n: %+v", rows)
		}
	}
	// The §3.1 shape: strict grows super-linearly (roughly mⁿ); by n=6 it
	// must dwarf the constant symbolic visit count.
	last := rows[len(rows)-1]
	if last.StrictVisits < 10*last.SymbolicVisits {
		t.Errorf("by n=6 enumeration (%d visits) should dwarf symbolic (%d visits)",
			last.StrictVisits, last.SymbolicVisits)
	}
	if last.CountingStates >= last.StrictStates {
		t.Errorf("counting equivalence must compress the strict space: %+v", last)
	}
}

func TestComplexityExponentialRatio(t *testing.T) {
	// Strict-state growth factor must approach m=4 per added cache for
	// Illinois as n grows (the mⁿ claim of Section 3.1).
	p := protocols.Illinois()
	rows, err := Complexity(p, []int{6, 7, 8})
	if err != nil {
		t.Fatal(err)
	}
	r1 := float64(rows[1].StrictStates) / float64(rows[0].StrictStates)
	r2 := float64(rows[2].StrictStates) / float64(rows[1].StrictStates)
	if r1 < 1.5 || r2 < 1.5 {
		t.Errorf("growth factors %.2f, %.2f: not exponential-shaped", r1, r2)
	}
}

func TestSuiteAllPermissible(t *testing.T) {
	rows, err := Suite([]int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("suite has %d protocols, want 12", len(rows))
	}
	for _, r := range rows {
		if !r.Report.OK() {
			t.Errorf("%s failed verification", r.Report.Protocol.Name)
		}
	}
}

func TestMutantsAllDetected(t *testing.T) {
	rows, err := MutantsExperiment()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 20 {
		t.Fatalf("only %d mutants", len(rows))
	}
	for _, r := range rows {
		if !r.Detected {
			t.Errorf("mutant %s (%s) escaped", r.Mutant.Protocol.Name, r.Mutant.Detail)
		}
	}
}

func TestWorkloadsCoherent(t *testing.T) {
	rows, err := Workloads(context.Background(), 4, 8, 20000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12*4 {
		t.Fatalf("want 12 protocols × 4 workloads, got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Stats.StaleReads != 0 {
			t.Errorf("%s/%s: stale reads", r.Protocol, r.Workload)
		}
		if r.Stats.Ops == 0 {
			t.Errorf("%s/%s: no operations recorded", r.Protocol, r.Workload)
		}
	}
}

// TestSimulatorExperimentsStopOnCancel: a canceled context stops the
// simulator experiments inside their first run, with a stop error.
func TestSimulatorExperimentsStopOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Workloads(ctx, 4, 8, 20000, 7); !runctl.IsStop(err) {
		t.Errorf("Workloads on a canceled context: %v, want a stop error", err)
	}
	_, err := FalseSharingSweep(ctx, []string{"illinois"}, 4, 4, 30000, 11, []int{1})
	if !runctl.IsStop(err) {
		t.Errorf("FalseSharingSweep on a canceled context: %v, want a stop error", err)
	}
}

func TestWorkloadsShowProtocolContrasts(t *testing.T) {
	// The qualitative contrast from Archibald & Baer: on producer-consumer
	// sharing, write-broadcast protocols (Firefly, Dragon) never invalidate
	// — consumers keep their copies — while write-invalidate protocols
	// (Illinois) invalidate on every producer store.
	rows, err := Workloads(context.Background(), 8, 8, 50000, 3)
	if err != nil {
		t.Fatal(err)
	}
	get := func(proto, wl string) WorkloadRow {
		for _, r := range rows {
			if r.Protocol == proto && r.Workload == wl {
				return r
			}
		}
		t.Fatalf("missing row %s/%s", proto, wl)
		return WorkloadRow{}
	}
	ill := get("Illinois", "producer-consumer")
	ff := get("Firefly", "producer-consumer")
	dr := get("Dragon", "producer-consumer")
	if ff.Stats.Invalidations != 0 || dr.Stats.Invalidations != 0 {
		t.Errorf("broadcast protocols must not invalidate: firefly=%d dragon=%d",
			ff.Stats.Invalidations, dr.Stats.Invalidations)
	}
	if ill.Stats.Invalidations == 0 {
		t.Error("Illinois must invalidate under producer-consumer sharing")
	}
	if ff.Stats.Updates == 0 || dr.Stats.Updates == 0 {
		t.Error("broadcast protocols must record update traffic")
	}
	// Consumers keep their copies under broadcast: the miss ratio must be
	// lower than under invalidation.
	if ff.Stats.MissRatio() >= ill.Stats.MissRatio() {
		t.Errorf("firefly miss ratio %.4f should beat illinois %.4f on producer-consumer",
			ff.Stats.MissRatio(), ill.Stats.MissRatio())
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	renders := []struct {
		name string
		f    func() (string, error)
	}{
		{"fig1", func() (string, error) { var b bytes.Buffer; err := RenderFig1(&b); return b.String(), err }},
		{"fig4", func() (string, error) { var b bytes.Buffer; err := RenderFig4(&b); return b.String(), err }},
		{"fig4table", func() (string, error) { var b bytes.Buffer; err := RenderFig4Table(&b); return b.String(), err }},
		{"a2", func() (string, error) { var b bytes.Buffer; err := RenderA2(&b); return b.String(), err }},
		{"suite", func() (string, error) { var b bytes.Buffer; err := RenderSuite(&b); return b.String(), err }},
		{"mutants", func() (string, error) { var b bytes.Buffer; err := RenderMutants(&b); return b.String(), err }},
		{"complexity", func() (string, error) {
			var b bytes.Buffer
			err := RenderComplexity(&b, []string{"illinois"}, []int{2, 3})
			return b.String(), err
		}},
		{"workloads", func() (string, error) {
			var b bytes.Buffer
			err := RenderWorkloads(context.Background(), &b, 2, 4, 2000, 1)
			return b.String(), err
		}},
	}
	for _, r := range renders {
		t.Run(r.name, func(t *testing.T) {
			out, err := r.f()
			if err != nil {
				t.Fatal(err)
			}
			if len(strings.TrimSpace(out)) == 0 {
				t.Fatal("renderer produced no output")
			}
		})
	}
}

func TestRenderFig4MentionsPaperNumbers(t *testing.T) {
	var b bytes.Buffer
	if err := RenderFig4(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"paper: 5", "paper: 22", "(Invalid+)", "digraph"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig4 output missing %q", want)
		}
	}
}
