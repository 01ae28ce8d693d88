package symbolic

import (
	"context"
	"testing"

	"repro/internal/protocols"
	"repro/internal/runctl"
)

// captureSymbolicCheckpoint interrupts a real expansion at its first
// periodic snapshot and returns the serialized checkpoint, seeding the
// fuzz corpus with a genuine well-formed file.
func captureSymbolicCheckpoint(t testing.TB) []byte {
	t.Helper()
	p, err := protocols.ByName("illinois")
	if err != nil {
		t.Fatal(err)
	}
	var captured []byte
	_, _ = Expand(p, Options{
		RunConfig: runctl.RunConfig{CheckpointEvery: 1},
		OnCheckpoint: func(cp *Checkpoint) error {
			captured, err = cp.Encode()
			if err != nil {
				return err
			}
			return context.Canceled
		},
	})
	if captured == nil {
		t.Fatal("expansion never produced a periodic checkpoint")
	}
	return captured
}

// FuzzDecodeCheckpoint hardens the symbolic resume path: arbitrary bytes
// fed to DecodeCheckpoint and then to a resuming Engine.Run must produce errors,
// never panics — malformed JSON, wrong versions, out-of-range state-table
// indices and inconsistent class shapes included.
func FuzzDecodeCheckpoint(f *testing.F) {
	seeds := [][]byte{
		captureSymbolicCheckpoint(f),
		[]byte(`{`),
		[]byte(`no json here`),
		[]byte(`{"version":1}`),
		[]byte(`{"version":99}`),
		[]byte(`{"version":2,"protocol":"Illinois","states":[],"work":[7],"hist":[-3]}`),
		[]byte(`{"version":2,"protocol":"Illinois","states":[{"reps":[1],"cdata":[0,0],"attr":1,"mdata":0}],"work":[0]}`),
		[]byte(`{"version":2,"protocol":"NoSuchProtocol","states":[],"work":[],"hist":[]}`),
	}
	for _, s := range seeds {
		f.Add(s)
	}

	p, err := protocols.ByName("illinois")
	if err != nil {
		f.Fatal(err)
	}
	eng, err := NewEngine(p)
	if err != nil {
		f.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := DecodeCheckpoint(data)
		if err != nil {
			return
		}
		if cp.Version != CheckpointVersion {
			t.Fatalf("decoder accepted version %d", cp.Version)
		}
		_, _ = eng.Run(canceled, Options{Resume: cp})
	})
}
