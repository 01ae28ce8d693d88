package enum

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/protocols"
	"repro/internal/runctl"
)

// captureCheckpoint interrupts a real run at its first periodic snapshot
// and returns the serialized checkpoint, so the fuzz corpus starts from a
// genuine well-formed file.
func captureCheckpoint(t testing.TB, mode string) []byte {
	t.Helper()
	p, err := protocols.ByName("illinois")
	if err != nil {
		t.Fatal(err)
	}
	var captured []byte
	opts := Options{
		RunConfig: runctl.RunConfig{CheckpointEvery: 1},
		Mode:      mode,
		OnCheckpoint: func(cp *Checkpoint) error {
			captured, err = cp.Encode()
			if err != nil {
				return err
			}
			return context.Canceled // stop the run; the snapshot is what we came for
		},
	}
	_, _ = Run(context.Background(), p, 3, opts)
	if captured == nil {
		t.Fatal("run never produced a periodic checkpoint")
	}
	return captured
}

// FuzzDecodeCheckpoint hardens the resume path against hostile checkpoint
// files: whatever the bytes, DecodeCheckpoint and a subsequent resume
// must return errors — never panic. Malformed JSON, wrong versions and
// bad key grammar all came up as seeds.
func FuzzDecodeCheckpoint(f *testing.F) {
	var seeds [][]byte
	seeds = append(seeds, captureCheckpoint(f, ModeStrict))
	seeds = append(seeds, captureCheckpoint(f, ModeCounting))
	seeds = append(seeds,
		[]byte(`{`),               // truncated JSON
		[]byte(`not json at all`), // not JSON
		[]byte(`{"version":1}`),   // stale version
		[]byte(`{"version":2}`),   // stale version (pre rank-ordered lists)
		[]byte(`{"version":99}`),  // future version
		[]byte(`{"version":3,"protocol":"Illinois","n":3,"mode":"strict","visited":["garbage key grammar"],"parents":[{"parent":-1}],"frontier":[{"states":["Invalid"],"versions":[0],"mem":0,"latest":0}]}`),
		[]byte(`{"version":3,"protocol":"Illinois","n":-1,"mode":"strict"}`),
		[]byte(`{"version":3,"protocol":"Illinois","n":3,"mode":"no-such-mode"}`),
		[]byte(`{"version":3,"protocol":"Illinois","n":3,"mode":"strict","frontier":[{"states":["Invalid","Shared"],"versions":[0],"mem":0,"latest":0}]}`),
		// Rank-structure corruption: parents/visited misalignment, a
		// repeated visited key, a forward parent rank, an unknown op and
		// an out-of-range cache index must all be rejected on resume.
		[]byte(`{"version":3,"protocol":"Illinois","n":3,"mode":"strict","visited":["I,I,I|m:0"],"parents":[]}`),
		[]byte(`{"version":3,"protocol":"Illinois","n":3,"mode":"strict","visited":["I,I,I|m:0","I,I,I|m:0"],"parents":[{"parent":-1},{"parent":0,"cache":0,"op":"read"}]}`),
		[]byte(`{"version":3,"protocol":"Illinois","n":3,"mode":"strict","visited":["I,I,I|m:0"],"parents":[{"parent":5,"cache":0,"op":"read"}]}`),
		[]byte(`{"version":3,"protocol":"Illinois","n":3,"mode":"strict","visited":["I,I,I|m:0"],"parents":[{"parent":0,"cache":0,"op":"no-such-op"}]}`),
		[]byte(`{"version":3,"protocol":"Illinois","n":3,"mode":"strict","visited":["I,I,I|m:0"],"parents":[{"parent":0,"cache":9,"op":"read"}]}`),
	)
	// A structurally valid checkpoint with one field scrambled, to steer
	// the fuzzer toward deep decode paths.
	if base := seeds[0]; json.Valid(base) {
		mangled := append([]byte(nil), base...)
		for i := range mangled {
			if mangled[i] == ':' {
				mangled[i] = ';'
				break
			}
		}
		seeds = append(seeds, mangled)
	}
	for _, s := range seeds {
		f.Add(s)
	}

	p, err := protocols.ByName("illinois")
	if err != nil {
		f.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := DecodeCheckpoint(data)
		if err != nil {
			return // rejecting is the job; panicking is the bug
		}
		if cp.Version != CheckpointVersion {
			t.Fatalf("decoder accepted version %d", cp.Version)
		}
		// A decoded checkpoint must either resume (the canceled context
		// stops the run at the first boundary) or fail with an error —
		// never panic on smuggled-in inconsistencies.
		_, _ = Run(canceled, p, 0, Options{Resume: cp})
	})
}
