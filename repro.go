// Package repro is a Go reproduction of Pong & Dubois, "The Verification of
// Cache Coherence Protocols" (SPAA 1993): a symbolic state-space verifier
// for snooping cache coherence protocols.
//
// Protocols are specified as finite state machines over per-cache block
// states (Invalid, Shared, Dirty, ...). Instead of enumerating the global
// state space for a fixed number of caches, the verifier groups symmetric
// caches into classes annotated with repetition operators (1, +, *) and
// expands COMPOSITE states, so one run verifies the protocol for an
// arbitrary number of caches. Verification reports the protocol's essential
// states (its global transition diagram) and proves, or refutes with a
// witness path, that no reachable state violates data consistency or cache
// state compatibility.
//
// The package is a thin facade over the implementation packages:
//
//   - internal/fsm        protocol model (states, rules, data effects)
//   - internal/compile    shared compiled representation (integer jump tables)
//   - internal/symbolic   composite states and the expansion algorithm
//   - internal/enum       explicit-state enumeration baselines
//   - internal/protocols  Illinois, Write-Once, Synapse, Berkeley, Firefly,
//     Dragon, MSI
//   - internal/graph      global and per-cache transition diagrams (DOT)
//   - internal/core       verification pipeline and reports
//   - internal/sim        concrete multiprocessor simulator
//   - internal/trace      workload generators
//   - internal/ccpsl      protocol specification language
//   - internal/mutate     fault injection
//
// Quick start:
//
//	p, _ := repro.ProtocolByName("illinois")
//	rep, err := repro.Verify(p, repro.VerifyOptions{BuildGraph: true})
//	if err != nil { ... }
//	fmt.Print(rep.Summary())   // five essential states, Figure 4 of the paper
package repro

import (
	"context"
	"io"

	"repro/internal/ccpsl"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/fsm"
	"repro/internal/mutate"
	"repro/internal/obs"
	"repro/internal/protocols"
	"repro/internal/runctl"
	"repro/internal/symbolic"
)

// Protocol is a behavioral cache-coherence protocol definition.
type Protocol = fsm.Protocol

// VerifyOptions configure a verification run.
type VerifyOptions = core.Options

// Report is the outcome of a verification run: essential states, the global
// transition diagram, violations with witness paths, and cross-check
// results.
type Report = core.Report

// Mutant is a protocol with one injected design fault.
type Mutant = mutate.Mutant

// Budget bounds a verification run: wall-clock deadline, distinct-state
// count and estimated worklist memory. The zero value is unlimited.
type Budget = runctl.Budget

// SymbolicCheckpoint is a resumable snapshot of an interrupted symbolic
// expansion; pass it back via VerifyOptions.Resume.
type SymbolicCheckpoint = symbolic.Checkpoint

// Observer receives live progress callbacks from a verification run: phase
// boundaries (OnPhase), one report per expansion level (OnLevel) and
// discrete events (OnEvent). Set it on VerifyOptions.Observer; nil (the
// default) disables the callbacks with no overhead. The alias lets callers
// implement and install observers without importing internal/obs.
type Observer = obs.Observer

// PhaseEvent is the argument of Observer.OnPhase: one edge of a pipeline
// phase (parse, expand, reconcile, graph, crosscheck, audit) with
// monotonic-clock timing on the closing edge.
type PhaseEvent = obs.PhaseEvent

// LevelStats is the argument of Observer.OnLevel: cumulative frontier,
// essential-state, visit and pruning counts after one expansion level.
type LevelStats = obs.LevelStats

// ObserverFuncs adapts plain functions to Observer; nil fields are no-ops.
type ObserverFuncs = obs.Funcs

// Metrics is a registry of typed counters, gauges and timing histograms.
// Set one on VerifyOptions.Metrics to collect a run's statistics, then
// render them with its Snapshot method (deterministic JSON). See
// docs/observability.md for the metric-name catalog.
type Metrics = obs.Registry

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// ProgressObserver returns an Observer that writes one human-readable line
// per expansion level (and per completed phase) to w — the library form of
// the binaries' -progress flag.
func ProgressObserver(w io.Writer) Observer { return obs.Progress(w) }

// MultiObserver fans callbacks out to several observers, dropping nil
// entries; it returns nil when every entry is nil.
func MultiObserver(observers ...Observer) Observer { return obs.Multi(observers...) }

// Structured stop reasons. A run stopped by cancellation or a resource
// budget returns its partial results together with an error matching
// exactly one of these via errors.Is.
var (
	// ErrCanceled: the run's context was canceled.
	ErrCanceled = runctl.ErrCanceled
	// ErrDeadline: the context deadline or Budget.Deadline expired.
	ErrDeadline = runctl.ErrDeadline
	// ErrStateBudget: Budget.MaxStates (or an engine's visit cap) was
	// exhausted.
	ErrStateBudget = runctl.ErrStateBudget
	// ErrMemBudget: Budget.MaxBytes was exhausted.
	ErrMemBudget = runctl.ErrMemBudget
)

// IsStop reports whether err is one of the structured stop reasons.
func IsStop(err error) bool { return runctl.IsStop(err) }

// VerifyContext is the canonical entry point of the verifier: it runs the
// full symbolic verification pipeline on a protocol — Figure 3 expansion
// with containment pruning, optional global-diagram construction and
// optional explicit-state cross-checks (Theorem 1) — under a context.
// Cancellation, deadlines and the VerifyOptions.Budget bounds stop the run
// at the next clean boundary and return the partial Report together with
// an error matching one of the stop sentinels above via errors.Is.
func VerifyContext(ctx context.Context, p *Protocol, opts VerifyOptions) (*Report, error) {
	return core.VerifyContext(ctx, p, opts)
}

// Verify is VerifyContext with context.Background(), for callers that need
// neither cancellation nor deadlines.
func Verify(p *Protocol, opts VerifyOptions) (*Report, error) {
	return VerifyContext(context.Background(), p, opts)
}

// ProtocolByName returns a built-in protocol ("illinois", "write-once",
// "synapse", "berkeley", "firefly", "dragon", "msi"); lookup is
// case-insensitive.
func ProtocolByName(name string) (*Protocol, error) {
	return protocols.ByName(name)
}

// ProtocolNames lists the built-in protocol names.
func ProtocolNames() []string { return protocols.Names() }

// Protocols returns fresh instances of all built-in protocols.
func Protocols() []*Protocol { return protocols.All() }

// ParseSpec compiles a ccpsl protocol specification (see internal/ccpsl for
// the grammar) into a validated protocol.
func ParseSpec(src string) (*Protocol, error) { return ccpsl.Parse(src) }

// FormatSpec renders a protocol as a ccpsl specification; it round-trips
// with ParseSpec.
func FormatSpec(p *Protocol) string { return ccpsl.Format(p) }

// Mutants returns fault-injected variants of p, each breaking exactly one
// rule. Verifying them demonstrates erroneous-state detection.
func Mutants(p *Protocol) []Mutant { return mutate.Catalog(p) }

// CompiledProtocol is the shared compiled representation of a protocol:
// dense integer-indexed jump tables that every engine (the simulator, the
// enumeration engines, the symbolic expansion, trace replay) dispatches
// through. Compiling validates the protocol once; stepping through the
// compiled form is bit-identical to the interpreted fsm semantics.
type CompiledProtocol = compile.Protocol

// Compile lowers a protocol into its compiled representation.
func Compile(p *Protocol) (*CompiledProtocol, error) { return compile.Compile(p) }

// RegisterProtocol adds a protocol to the library under its canonical
// name, making it addressable by ProtocolByName like any built-in.
func RegisterProtocol(p *Protocol) error { return protocols.Register(p) }
