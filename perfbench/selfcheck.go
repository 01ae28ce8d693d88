package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// selfCheckSeconds is how long each workload runs in the self-check.
const selfCheckSeconds = 1

// benchmarkFile names the metric contract, read from the checkout root.
const benchmarkFile = "BENCHMARK.json"

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readBenchmarkSpec() (benchmarkSpec, error) {
	var spec benchmarkSpec
	data, err := os.ReadFile(benchmarkFile)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", benchmarkFile, err)
	}
	return spec, nil
}

// runSelfCheck runs every workload briefly, untraced and traced, and
// checks that each prints every metric BENCHMARK.json names, with its
// unit, and passes the known-answer gate. It then runs each workload with
// one committed answer made wrong and checks that the gate rejects it.
func runSelfCheck() error {
	spec, err := readBenchmarkSpec()
	if err != nil {
		return err
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			return fmt.Errorf("%s names workload %q, which perfbench does not run", benchmarkFile, w.Name)
		}
	}
	for _, name := range workloadOrder {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: name, seed: 1, seconds: selfCheckSeconds, trace: trace}
			o, err := runWorkload(cfg)
			if err != nil {
				return err
			}
			if len(o.gate) > 0 {
				return fmt.Errorf("%s: known-answer gate failed on the unmodified tree: %s", name, strings.Join(o.gate, "; "))
			}
			want, got := spec.EndToEnd, o.endToEnd
			if trace {
				want, got = spec.PerLayer, o.layers
				if err := checkOwnLayers(name, got); err != nil {
					return err
				}
			}
			if err := checkMetricSet(name, want, got); err != nil {
				return err
			}
			if err := printResult(io.Discard, cfg, o); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "selfcheck: %s trace=%t: %d metrics ok\n", name, trace, len(got))
		}
	}
	return checkGateRejects()
}

// checkMetricSet requires exactly the named metrics, each with its unit and
// a finite value.
func checkMetricSet(workload string, want []metricSpec, got map[string]metric) error {
	for _, m := range want {
		g, ok := got[m.Name]
		switch {
		case !ok:
			return fmt.Errorf("%s: metric %s missing", workload, m.Name)
		case g.Unit != m.Unit:
			return fmt.Errorf("%s: metric %s has unit %q, want %q", workload, m.Name, g.Unit, m.Unit)
		case math.IsNaN(g.Value) || math.IsInf(g.Value, 0):
			return fmt.Errorf("%s: metric %s is %v", workload, m.Name, g.Value)
		}
	}
	if len(got) != len(want) {
		names := map[string]bool{}
		for _, m := range want {
			names[m.Name] = true
		}
		for name := range got {
			if !names[name] {
				return fmt.Errorf("%s: metric %s is not in %s", workload, name, benchmarkFile)
			}
		}
	}
	return nil
}

// ownLayers are the layers each workload exercises; the self-check wants a
// nonzero metric from each. A traced run reports every other layer's
// metrics as 0, because that layer does no work in the workload.
var ownLayers = map[string][]string{
	"catalog-served": {"serve", "ccpsl", "compile", "core", "graph", "campaign", "go", "trace"},
	"state-space":    {"compile", "enum", "stateset", "symbolic", "go", "trace"},
	"trace-replay":   {"replay", "sim", "compile", "go", "trace"},
}

// checkOwnLayers requires a nonzero metric from every layer the workload
// exercises, so a layer cannot silently fall back to the zero fill.
func checkOwnLayers(workload string, got map[string]metric) error {
	for _, layer := range ownLayers[workload] {
		found := false
		for name, m := range got {
			found = found || (layerOf(name) == layer && m.Value != 0)
		}
		if !found {
			return fmt.Errorf("%s: no nonzero metric from layer %s", workload, layer)
		}
	}
	return nil
}

// checkGateRejects corrupts one committed answer per workload and requires
// the run to report a known-answer failure.
func checkGateRejects() error {
	good := known
	defer func() { known = good }()
	corruptions := map[string]func(k *knownAnswers){
		"catalog-served": func(k *knownAnswers) { k.IllinoisEssential++ },
		"state-space": func(k *knownAnswers) {
			name := ssJobs[0].name()
			a := k.StateSpace[name]
			a.Unique++
			k.StateSpace = copyMap(k.StateSpace)
			k.StateSpace[name] = a
		},
		"trace-replay": func(k *knownAnswers) { k.StaleReads++ },
	}
	for _, name := range workloadOrder {
		k := good
		corruptions[name](&k)
		known = k
		o, err := runWorkload(config{workload: name, seed: 1, seconds: selfCheckSeconds})
		if err != nil {
			return err
		}
		if len(o.gate) == 0 {
			return fmt.Errorf("%s: the known-answer gate accepted a wrong expected value", name)
		}
		fmt.Fprintf(os.Stderr, "selfcheck: %s: gate rejects a wrong answer: %s\n", name, o.gate[0])
	}
	return nil
}

func copyMap[K comparable, V any](m map[K]V) map[K]V {
	out := make(map[K]V, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
