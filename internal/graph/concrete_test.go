package graph

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/enum"
	"repro/internal/protocols"
)

// TestConcreteMatchesEnumCensus pins the graph builder to the engines: for
// every built-in protocol, in both equivalence modes, the diagram's node set
// must equal the enumeration's distinct-state census, node for node in
// discovery order.
func TestConcreteMatchesEnumCensus(t *testing.T) {
	const n = 3
	for _, p := range protocols.All() {
		for _, mode := range []string{enum.ModeStrict, enum.ModeCounting} {
			g, err := BuildConcrete(p, n, mode, 0)
			if err != nil {
				t.Fatalf("%s %s: %v", p.Name, mode, err)
			}
			res, err := enum.Run(context.Background(), p, n, enum.Options{KeepReachable: true, Mode: mode})
			if err != nil {
				t.Fatalf("%s %s: %v", p.Name, mode, err)
			}
			if len(g.Nodes) != res.Unique {
				t.Errorf("%s %s: %d graph nodes, enum census %d", p.Name, mode, len(g.Nodes), res.Unique)
				continue
			}
			for i, c := range res.Reachable {
				key, err := enum.CanonicalKey(c, mode)
				if err != nil {
					t.Fatal(err)
				}
				if g.Nodes[i] != key {
					t.Errorf("%s %s: node %d = %q, enum discovered %q", p.Name, mode, i, g.Nodes[i], key)
					break
				}
			}
		}
	}
}

// TestConcreteDeterministicBytes requires two independent builds to render
// byte-identical DOT and JSON — the contract the service's graph memoization
// and the CLI goldens rely on.
func TestConcreteDeterministicBytes(t *testing.T) {
	build := func() *Concrete {
		p, err := protocols.ByName("illinois")
		if err != nil {
			t.Fatal(err)
		}
		g, err := BuildConcrete(p, 3, enum.ModeCounting, 0)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	a, b := build(), build()
	if a.DOT() != b.DOT() {
		t.Error("DOT rendering is not deterministic")
	}
	aj, err := a.JSON()
	if err != nil {
		t.Fatal(err)
	}
	bj, err := b.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, bj) {
		t.Error("JSON rendering is not deterministic")
	}
}

func TestConcreteDOTShape(t *testing.T) {
	p, err := protocols.ByName("msi")
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildConcrete(p, 2, enum.ModeStrict, 0)
	if err != nil {
		t.Fatal(err)
	}
	dot := g.DOT()
	for _, want := range []string{`digraph "MSI"`, "rankdir=LR", "penwidth=2", "c0 ["} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
	if g.Initial != 0 {
		t.Errorf("initial node = %d, want 0", g.Initial)
	}
}

func TestConcreteJSONShape(t *testing.T) {
	p, err := protocols.ByName("msi")
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildConcrete(p, 2, enum.ModeStrict, 0)
	if err != nil {
		t.Fatal(err)
	}
	data, err := g.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var e ExportJSON
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatal(err)
	}
	if e.Schema != GraphSchema || e.Kind != "concrete" || e.Protocol != "MSI" ||
		e.N != 2 || e.Mode != enum.ModeStrict {
		t.Errorf("header = %+v", e)
	}
	if len(e.Nodes) != len(g.Nodes) || len(e.Edges) != len(g.Edges) {
		t.Errorf("%d/%d nodes, %d/%d edges", len(e.Nodes), len(g.Nodes), len(e.Edges), len(g.Edges))
	}
	if !e.Nodes[0].Initial {
		t.Error("node 0 not marked initial")
	}
	names := make(map[string]bool, len(e.Nodes))
	for _, nd := range e.Nodes {
		names[nd.Name] = true
	}
	for _, ed := range e.Edges {
		if !names[ed.From] || !names[ed.To] {
			t.Errorf("edge %+v references unknown node", ed)
		}
		if ed.Cache == nil {
			t.Errorf("edge %+v has no cache index", ed)
		}
	}
}

func TestGlobalJSONShape(t *testing.T) {
	_, g := illinoisGlobal(t)
	data, err := g.JSON()
	if err != nil {
		t.Fatal(err)
	}
	again, err := g.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Error("global JSON rendering is not deterministic")
	}
	var e ExportJSON
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatal(err)
	}
	if e.Schema != GraphSchema || e.Kind != "global" || e.Protocol != "Illinois" {
		t.Errorf("header = %+v", e)
	}
	if len(e.Nodes) != len(g.Nodes) || len(e.Edges) != len(g.Edges) {
		t.Errorf("%d/%d nodes, %d/%d edges", len(e.Nodes), len(g.Nodes), len(e.Edges), len(g.Edges))
	}
	if e.Nodes[g.Initial].Initial != true {
		t.Error("initial node not marked")
	}
	for _, ed := range e.Edges {
		if ed.Cache != nil {
			t.Errorf("global edge %+v carries a concrete cache index", ed)
		}
	}
}

func TestBuildConcreteErrors(t *testing.T) {
	p, err := protocols.ByName("msi")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildConcrete(p, 0, enum.ModeStrict, 0); err == nil {
		t.Error("n=0 must error")
	}
	if _, err := BuildConcrete(p, 2, "fuzzy", 0); err == nil {
		t.Error("unknown mode must error")
	}
}

func TestBuildConcreteTruncation(t *testing.T) {
	p, err := protocols.ByName("illinois")
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildConcrete(p, 3, enum.ModeStrict, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Truncated {
		t.Error("4-state cap must truncate the illinois n=3 diagram")
	}
	if len(g.Nodes) > 4 {
		t.Errorf("%d nodes exceed the cap", len(g.Nodes))
	}
	for _, e := range g.Edges {
		if e.From >= len(g.Nodes) || e.To >= len(g.Nodes) {
			t.Errorf("edge %+v escapes the discovered node set", e)
		}
	}
}
