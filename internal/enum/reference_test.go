package enum

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ckptio"
	"repro/internal/fsm"
	"repro/internal/mutate"
	"repro/internal/protocols"
)

// referencePath holds the expansion reference: the rendered Result
// (renderResult) of every case referenceCases lists, keyed by case name.
// It pins what an enumeration observes — counts, violation text, witness
// paths, spec-error text and Reachable in discovery order — independently
// of how the engine represents states. Regenerate with
//
//	UPDATE_GOLDEN=1 go test ./internal/enum -run TestExpandMatchesReference
//
// only when a change is meant to alter results.
var referencePath = filepath.Join("testdata", "expand_reference.json.gz")

// referenceCase is one run of the expansion reference.
type referenceCase struct {
	name string
	p    *fsm.Protocol
	n    int
	opts Options
}

// referenceCases lists the reference runs:
//   - every spec and mutant (parityCorpus) at n=3 in both modes, with the
//     reachable set retained;
//   - every library protocol in counting mode at n=64 and n=70, past 63
//     caches, where the engine once fell back to string keys;
//   - Dragon!skip-writeback in counting mode at n=64, a refuted run at that
//     width, with its witnesses;
//   - Synthetic(62) and Synthetic(64), 64 and 66 states, past the 63 states
//     a one-byte cell holds, in both modes at n=2;
//   - the wide counting runs of TestWidePackedMatchesStringKeys.
func referenceCases(t *testing.T) []referenceCase {
	t.Helper()
	var cases []referenceCase
	add := func(p *fsm.Protocol, n int, opts Options) {
		cases = append(cases, referenceCase{
			name: fmt.Sprintf("%s/%s/n=%d/strict=%t/reach=%t", p.Name, opts.Mode, n, opts.Strict, opts.KeepReachable),
			p:    p, n: n, opts: opts,
		})
	}
	modes := []string{ModeStrict, ModeCounting}
	for _, p := range parityCorpus(t) {
		for _, mode := range modes {
			add(p, 3, Options{Mode: mode, KeepReachable: true})
		}
	}
	for _, p := range protocols.All() {
		for _, n := range []int{64, 70} {
			add(p, n, Options{Mode: ModeCounting, KeepReachable: true, Strict: true})
		}
	}
	for _, m := range mutate.Catalog(protocols.Dragon()) {
		if m.Kind == "skip-writeback" {
			add(m.Protocol, 64, Options{Mode: ModeCounting, Strict: true})
		}
	}
	for _, levels := range []int{62, 64} {
		p, err := protocols.Synthetic(levels)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range modes {
			add(p, 2, Options{Mode: mode, KeepReachable: true, Strict: true})
		}
	}
	for _, c := range wideCases() {
		add(c.p, c.n, Options{Mode: ModeCounting, Strict: true})
	}
	return cases
}

// wideCase is one run of TestWidePackedMatchesStringKeys.
type wideCase struct {
	p *fsm.Protocol
	n int
}

// wideCases lists counting Dragon and MESI at n=40 and n=48, then the
// Dragon mutants in catalog order up to skip-writeback, the first one
// counting enumeration refutes at n=40.
func wideCases() []wideCase {
	var out []wideCase
	for _, p := range []*fsm.Protocol{protocols.Dragon(), protocols.MESI()} {
		for _, n := range []int{40, 48} {
			out = append(out, wideCase{p, n})
		}
	}
	for _, m := range mutate.Catalog(protocols.Dragon()) {
		out = append(out, wideCase{m.Protocol, 40})
		if m.Kind == "skip-writeback" {
			break
		}
	}
	return out
}

// loadReference reads the expansion reference, writing it first from the
// code under test when UPDATE_GOLDEN is set.
func loadReference(t *testing.T) map[string]string {
	t.Helper()
	if os.Getenv("UPDATE_GOLDEN") != "" {
		want := map[string]string{}
		for _, c := range referenceCases(t) {
			want[c.name] = runReference(t, c)
		}
		var buf bytes.Buffer
		zw, _ := gzip.NewWriterLevel(&buf, gzip.BestCompression)
		if err := json.NewEncoder(zw).Encode(want); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(referencePath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(referencePath)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1)", err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.NewDecoder(zr).Decode(&want); err != nil {
		t.Fatal(err)
	}
	return want
}

func runReference(t *testing.T, c referenceCase) string {
	t.Helper()
	res, err := Run(context.Background(), c.p, c.n, c.opts)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return renderResult(res)
}

// TestExpandMatchesReference replays the expansion reference and requires
// every run to render byte-identically.
func TestExpandMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("full specs x mutants sweep")
	}
	want := loadReference(t)
	cases := referenceCases(t)
	if len(cases) != len(want) {
		t.Fatalf("%d reference cases, the reference file has %d", len(cases), len(want))
	}
	for _, c := range cases {
		w, ok := want[c.name]
		if !ok {
			t.Fatalf("%s: missing from the reference file", c.name)
		}
		if got := runReference(t, c); got != w {
			t.Errorf("%s: diverges from the reference\n got: %.2000s\nwant: %.2000s", c.name, got, w)
		}
	}
}

// TestParentCheckpointsResnapshot restores each committed parent
// checkpoint and snapshots the restored run before it expands anything:
// the new payload must equal the file's byte for byte, so restoring a
// checkpoint loses and reorders nothing.
func TestParentCheckpointsResnapshot(t *testing.T) {
	for _, file := range []string{"parent_illinois_n4_cancel7.ckpt", "parent_dragon_n4_strict_every16.ckpt"} {
		path := filepath.Join("testdata", file)
		want, _, err := (&ckptio.Store{Path: path, Keep: 1}).Load()
		if err != nil {
			t.Fatal(err)
		}
		cp, err := DecodeCheckpoint(want)
		if err != nil {
			t.Fatal(err)
		}
		p, err := protocols.ByName(cp.Protocol)
		if err != nil {
			t.Fatal(err)
		}
		b, frontier, err := resumeBFS(p, 0, Options{Resume: cp})
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		again, err := b.snapshot(frontier)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		got, err := again.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: re-snapshot after restore differs from the committed payload\n got: %.1500s\nwant: %.1500s", file, got, want)
		}
	}
}
