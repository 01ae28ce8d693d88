package symbolic

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/ckptio"
	"repro/internal/fsm"
	"repro/internal/mutate"
	"repro/internal/protocols"
	"repro/internal/runctl"
)

// checkpointFixture is one committed mid-run snapshot. The files were
// written by an earlier build of the engine, stopped by a state budget
// with CheckpointOnStop, so resuming them pins the checkpoint format: the
// version, the state-table order and the key strings of Parents, Reported
// and SeenKeys. Regenerate with
//
//	UPDATE_GOLDEN=1 go test ./internal/symbolic -run TestResumeFixtureCheckpoint
//
// only when the checkpoint format is meant to change.
type checkpointFixture struct {
	file      string
	protocol  func(t *testing.T) *fsm.Protocol
	opts      Options // the interrupted run; its budget makes the stop
	maxStates int
}

var checkpointFixtures = []checkpointFixture{
	{
		file: "synthetic8_states100.ckpt",
		protocol: func(t *testing.T) *fsm.Protocol {
			p, err := protocols.Synthetic(8)
			if err != nil {
				t.Fatal(err)
			}
			return p
		},
		maxStates: 100,
	},
	{
		// A violating mutant under the identity-dedup ablation, so the
		// snapshot carries Reported and SeenKeys as well as Parents.
		file: "illinois_drop_invalidation_nocont_states15.ckpt",
		protocol: func(t *testing.T) *fsm.Protocol {
			for _, m := range mutate.Catalog(protocols.Illinois()) {
				if m.Protocol.Name == "Illinois!drop-invalidation" {
					return m.Protocol
				}
			}
			t.Fatal("mutant Illinois!drop-invalidation not in the catalog")
			return nil
		},
		opts:      Options{Strict: true, NoContainment: true},
		maxStates: 15,
	},
}

// TestResumeFixtureCheckpoint resumes each committed snapshot through the
// sequential driver and the speculation pipeline and requires the
// uninterrupted run's result. Re-snapshotting the restored expander must
// reproduce the committed payload byte for byte.
func TestResumeFixtureCheckpoint(t *testing.T) {
	for _, fx := range checkpointFixtures {
		t.Run(fx.file, func(t *testing.T) {
			p := fx.protocol(t)
			path := filepath.Join("testdata", fx.file)
			e, err := NewEngine(p)
			if err != nil {
				t.Fatal(err)
			}
			if os.Getenv("UPDATE_GOLDEN") != "" {
				opts := fx.opts
				opts.RunConfig = runctl.RunConfig{
					Budget:           runctl.Budget{MaxStates: fx.maxStates},
					CheckpointOnStop: true,
				}
				res, err := e.Run(context.Background(), opts)
				if err != nil {
					t.Fatal(err)
				}
				if res.Checkpoint == nil {
					t.Fatalf("budget %d did not stop the run at a worklist boundary", fx.maxStates)
				}
				if err := SaveCheckpoint(path, res.Checkpoint); err != nil {
					t.Fatal(err)
				}
			}
			payload, _, err := (&ckptio.Store{Path: path, Keep: 1}).Load()
			if err != nil {
				t.Fatal(err)
			}
			cp, err := DecodeCheckpoint(payload)
			if err != nil {
				t.Fatal(err)
			}
			if cp.Visits == 0 || len(cp.Work) == 0 {
				t.Fatalf("fixture is not mid-run: visits=%d work=%d", cp.Visits, len(cp.Work))
			}

			x, err := e.resumeExpander(Options{Resume: cp})
			if err != nil {
				t.Fatal(err)
			}
			again, err := x.snapshot().Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, payload) {
				t.Fatal("re-snapshot of the restored expander differs from the committed checkpoint")
			}

			full, err := e.Run(context.Background(), fx.opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2} {
				cp, err := DecodeCheckpoint(payload)
				if err != nil {
					t.Fatal(err)
				}
				resumed, err := e.Run(context.Background(), Options{
					Resume: cp, RunConfig: runctl.RunConfig{Workers: workers},
				})
				if err != nil {
					t.Fatal(err)
				}
				if resumed.Truncated {
					t.Fatalf("workers=%d: resumed run stopped: %v", workers, resumed.StopReason)
				}
				sameRun(t, resumed, full, "resumed fixture")
				if !reflect.DeepEqual(violationLines(resumed), violationLines(full)) {
					t.Fatalf("workers=%d: violations or witness paths diverge:\n got %q\nwant %q",
						workers, violationLines(resumed), violationLines(full))
				}
				if !reflect.DeepEqual(specErrorLines(resumed), specErrorLines(full)) {
					t.Fatalf("workers=%d: spec errors diverge", workers)
				}
			}
		})
	}
}
