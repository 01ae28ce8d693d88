package symbolic

import (
	"context"
	"strings"
	"testing"

	"repro/internal/protocols"
	"repro/internal/runctl"
)

// TestOldCheckpointVersionRejected pins the failure mode for symbolic
// checkpoints written by version-1 builds: both the decoder and the resume
// path must fail loudly, naming the found and the supported version, instead
// of misreading the old format.
func TestOldCheckpointVersionRejected(t *testing.T) {
	p := protocols.Illinois()
	partial, err := Expand(p, Options{
		RunConfig: runctl.RunConfig{Budget: runctl.Budget{MaxStates: 4}, CheckpointOnStop: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if partial.Checkpoint == nil {
		t.Fatal("CheckpointOnStop run carries no checkpoint")
	}

	cp := *partial.Checkpoint
	cp.Version = 1

	e, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(context.Background(), Options{Resume: &cp}); err == nil {
		t.Fatal("resume accepted a version-1 checkpoint")
	} else if !strings.Contains(err.Error(), "version 1") || !strings.Contains(err.Error(), "version 2") {
		t.Fatalf("resume error must name both versions, got: %v", err)
	}

	data, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCheckpoint(data); err == nil {
		t.Fatal("decoder accepted a version-1 checkpoint")
	} else if !strings.Contains(err.Error(), "version 1") || !strings.Contains(err.Error(), "version 2") {
		t.Fatalf("decode error must name both versions, got: %v", err)
	}
}
