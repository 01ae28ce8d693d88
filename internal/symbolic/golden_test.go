package symbolic

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/ccpsl"
	"repro/internal/fsm"
	"repro/internal/mutate"
	"repro/internal/protocols"
	"repro/internal/runctl"
)

// expandGoldenPath holds the expansion reference: every spec, every
// mutant and Synthetic(2..10), each under every combination of Strict,
// StopOnViolation and NoContainment. It pins the Figure 3 loop's exact
// output — the Essential list in order, every counter, every violation
// with its witness path, the spec errors and (for Illinois) the visit log
// — independently of how successors are built and checked. Regenerate with
//
//	UPDATE_GOLDEN=1 go test ./internal/symbolic -run TestExpandMatchesGolden
//
// only when a change is meant to alter results.
var expandGoldenPath = filepath.Join("testdata", "expand_golden.json.gz")

// expandGoldenRow is one run of the expansion reference.
type expandGoldenRow struct {
	Protocol        string   `json:"protocol"`
	Strict          bool     `json:"strict"`
	StopOnViolation bool     `json:"stop_on_violation"`
	NoContainment   bool     `json:"no_containment"`
	Essential       []string `json:"essential"`
	Visits          int      `json:"visits"`
	Expansions      int      `json:"expansions"`
	Superseded      int      `json:"superseded"`
	Contained       int      `json:"contained"`
	Evicted         int      `json:"evicted"`
	// Violations holds one line per erroneous state: its key, each
	// violation as "[kind detail]", then its witness path as
	// "label -> key" hops.
	Violations []string `json:"violations,omitempty"`
	SpecErrors []string `json:"spec_errors,omitempty"`
	// Log is the visit log, recorded for Illinois only.
	Log []string `json:"log,omitempty"`
}

// specCorpus returns every shipped spec plus every mutant of it.
func specCorpus(t *testing.T) []*fsm.Protocol {
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

// goldenCorpus is the spec corpus plus the synthetic family.
func goldenCorpus(t *testing.T) []*fsm.Protocol {
	t.Helper()
	out := specCorpus(t)
	for k := 2; k <= 10; k++ {
		p, err := protocols.Synthetic(k)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

func violationLines(r *Result) []string {
	var out []string
	for _, v := range r.Violations {
		var b bytes.Buffer
		b.WriteString(v.State.Key())
		for _, d := range v.Violations {
			fmt.Fprintf(&b, " [%d %s]", d.Kind, d.Detail)
		}
		for _, ps := range v.Path {
			fmt.Fprintf(&b, " | %s -> %s", ps.Label, ps.To.Key())
		}
		out = append(out, b.String())
	}
	return out
}

func specErrorLines(r *Result) []string {
	var out []string
	for _, err := range r.SpecErrors {
		out = append(out, err.Error())
	}
	return out
}

func expandGoldenRun(t *testing.T, workers int) []expandGoldenRow {
	t.Helper()
	var rows []expandGoldenRow
	for _, p := range goldenCorpus(t) {
		e, err := NewEngine(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for _, strict := range []bool{false, true} {
			for _, stop := range []bool{false, true} {
				for _, noCont := range []bool{false, true} {
					opts := Options{
						Strict: strict, StopOnViolation: stop, NoContainment: noCont,
						RecordLog: p.Name == "Illinois",
						RunConfig: runctl.RunConfig{Workers: workers},
					}
					res, err := e.Run(context.Background(), opts)
					if err != nil {
						t.Fatalf("%s strict=%t stop=%t nocont=%t workers=%d: %v",
							p.Name, strict, stop, noCont, workers, err)
					}
					row := expandGoldenRow{
						Protocol: p.Name, Strict: strict, StopOnViolation: stop, NoContainment: noCont,
						Essential: essentialKeys(res),
						Visits:    res.Visits, Expansions: res.Expansions, Superseded: res.Superseded,
						Contained: res.Contained, Evicted: res.Evicted,
						Violations: violationLines(res),
						SpecErrors: specErrorLines(res),
					}
					for _, lr := range res.Log {
						row.Log = append(row.Log, fmt.Sprintf("%s %s %s %s %s",
							lr.From.Key(), lr.Label, lr.Rule, lr.To.Key(), lr.Outcome))
					}
					rows = append(rows, row)
				}
			}
		}
	}
	return rows
}

// TestExpandMatchesGolden replays the expansion reference through the
// sequential driver and the speculation pipeline.
func TestExpandMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full specs x mutants x synthetic sweep")
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		var buf bytes.Buffer
		zw, _ := gzip.NewWriterLevel(&buf, gzip.BestCompression)
		enc := json.NewEncoder(zw)
		enc.SetIndent("", " ")
		if err := enc.Encode(expandGoldenRun(t, 0)); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(expandGoldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(expandGoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1)", err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	var want []expandGoldenRow
	if err := json.NewDecoder(zr).Decode(&want); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 2} {
		got := expandGoldenRun(t, workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d runs, golden has %d", workers, len(got), len(want))
		}
		for i := range want {
			g, w := goldenJSON(t, got[i]), goldenJSON(t, want[i])
			if g != w {
				t.Errorf("workers=%d: run %d diverges from golden\n got: %s\nwant: %s", workers, i, g, w)
			}
		}
	}
}

func goldenJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
