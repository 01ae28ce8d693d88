package runctl

import "repro/internal/obs"

// RunConfig is the run-control and observability configuration shared by
// every engine's Options struct. enum.Options and symbolic.Options embed
// it, so the budget/checkpoint/parallelism knobs are declared once and
// read identically everywhere:
//
//	opts := enum.Options{RunConfig: runctl.RunConfig{
//		Budget:  runctl.Budget{MaxStates: 1 << 20},
//		Workers: 8,
//		Metrics: reg,
//	}}
//
// The zero value runs unbounded, sequential and unobserved.
type RunConfig struct {
	// Budget bounds the run (wall clock, states, estimated bytes); the zero
	// Budget is unlimited.
	Budget Budget

	// CheckpointOnStop asks the engine to capture a resumable checkpoint in
	// its Result when the run stops early (budget, cancellation).
	CheckpointOnStop bool

	// CheckpointEvery, when > 0, additionally snapshots the run every that
	// many expanded states through the engine's checkpoint callback
	// (enum.Options.OnCheckpoint / symbolic.Options.OnCheckpoint — the
	// callback stays on the engine's Options because the checkpoint types
	// differ).
	CheckpointEvery int

	// Workers picks the driver of enum.Run and symbolic.Engine.Run: a
	// value above 1 runs the engine's parallel driver with that many
	// workers, and 0 or 1 runs its sequential loop. Both drivers produce
	// bit-identical results.
	Workers int

	// SpillDir, when set together with Budget.MaxBytes, lets engines with
	// out-of-core support (the parallel enumeration) spill cold visited-set
	// shards to CRC-checked files under this directory once the estimated
	// resident bytes approach the budget, instead of stopping with
	// ErrMemBudget. Spilled entries are streamed back for deduplication at
	// level boundaries, so results stay bit-identical to an in-memory run.
	// Setting it makes enum.Run use its parallel driver, which owns
	// spilling, even at Workers 0 or 1. The symbolic engine ignores it.
	SpillDir string

	// Observer receives phase/level/event callbacks during the run; nil
	// disables them with a single nil check (allocation-free fast path).
	Observer obs.Observer

	// Metrics, when non-nil, accumulates the run's counters, gauges and
	// per-phase timing histograms (see internal/obs for the name catalog).
	Metrics *obs.Registry
}

// Sink bundles the config's observability outputs for obs.Sink.Run.
func (c RunConfig) Sink() obs.Sink {
	return obs.Sink{Observer: c.Observer, Metrics: c.Metrics}
}
