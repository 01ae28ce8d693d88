// Package campaign runs fleets of verification jobs to completion in the
// presence of failures. A campaign is a list of jobs (protocol × engine ×
// cache count) plus a policy; the runner gives every job a deadline,
// retries transient failures with exponential backoff, degrades jobs that
// exhaust their resources down a ladder of cheaper configurations
// (parallel → sequential enumeration → smaller n → symbolic expansion),
// and quarantines jobs that keep failing so one pathological input cannot
// stall the fleet.
//
// Durability comes from the checkpoint store of internal/ckptio: every job
// persists periodic snapshots through it, a retried attempt resumes from
// the newest valid snapshot, and the store's rotation + fallback mean a
// truncated or corrupted newest snapshot costs at most the work since the
// previous good one — never the verdict. Both engines guarantee that an
// interrupted-then-resumed run reaches counts identical to an
// uninterrupted one, so checkpoint corruption can change neither final
// verdicts nor essential-state counts.
//
// Trust comes from the witness auditor of audit.go: every violation a
// campaign reports is re-validated by replaying its witness path
// step-by-step through the concrete FSM semantics (internal/fsm) and
// re-checking the Definition 3 data-consistency invariants, independently
// of the engine that produced it.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/ckptio"
	"repro/internal/enum"
	"repro/internal/fsm"
	"repro/internal/obs"
	"repro/internal/protocols"
	"repro/internal/runctl"
	"repro/internal/symbolic"
)

// Engine selects how a job verifies its protocol.
type Engine string

const (
	// EngineEnumStrict is explicit-state search under strict tuple
	// equivalence (the paper's Figure 2).
	EngineEnumStrict Engine = "enum-strict"
	// EngineEnumCounting is explicit-state search under counting
	// equivalence (Definition 5).
	EngineEnumCounting Engine = "enum-counting"
	// EngineSymbolic is the symbolic state expansion of Figure 3.
	EngineSymbolic Engine = "symbolic"
)

// enumMode maps an enumeration engine to its equivalence mode string.
func enumMode(e Engine) string {
	if e == EngineEnumCounting {
		return enum.ModeCounting
	}
	return enum.ModeStrict
}

// JobSpec describes one verification job.
type JobSpec struct {
	// Name identifies the job in reports, chaos plans and checkpoint
	// files; JobName builds the canonical "<proto>-<engine>-n<k>" form.
	Name string
	// Protocol is a registry name (internal/protocols). Ignored when
	// Proto is set.
	Protocol string
	// Proto overrides the registry lookup with an explicit protocol —
	// how fault-injection campaigns run internal/mutate mutants.
	Proto *fsm.Protocol
	// Engine selects the verification method.
	Engine Engine
	// N is the cache count for enumeration engines (ignored by symbolic).
	N int
	// Strict enables the CleanShared extension check.
	Strict bool
}

// JobName renders the canonical job name.
func JobName(protocol string, e Engine, n int) string {
	if e == EngineSymbolic {
		return fmt.Sprintf("%s-%s", protocol, e)
	}
	return fmt.Sprintf("%s-%s-n%d", protocol, e, n)
}

// ChaosOp injects one fault into a running campaign, for tests and the CI
// chaos job. Ops fire inside a job's periodic checkpoint hook, after the
// durable save of the AtSave-th snapshot of the attempt, so an injected
// crash always has a snapshot to come back to — exactly the situation a
// real crash-under-checkpointing produces.
type ChaosOp struct {
	// Kind is one of "corrupt" (truncate and scribble over the newest
	// snapshot generation on disk), "delete" (remove it), "kill" (abort
	// the first attempt with a transient error — a simulated crash), or
	// "wedge" (abort every attempt — a job that can never finish, for
	// exercising quarantine).
	Kind string
	// Job is the target job's name.
	Job string
	// AtSave is the 1-based periodic-save ordinal the op fires at.
	AtSave int
}

// Policy tunes retry, degradation, durability and auditing for every job
// in the campaign.
type Policy struct {
	// MaxAttempts bounds the attempts per job before quarantine
	// (default 4).
	MaxAttempts int
	// AttemptTimeout is the per-attempt wall-clock deadline (0: none).
	AttemptTimeout time.Duration
	// BackoffBase, BackoffFactor and BackoffMax shape the exponential
	// backoff between retries (defaults 10ms, ×2, 2s).
	BackoffBase   time.Duration
	BackoffFactor float64
	BackoffMax    time.Duration
	// Jitter is the ± fraction applied to each backoff, drawn from a
	// per-job RNG seeded by Seed and the job name, so reruns of the same
	// campaign back off identically (default 0.2).
	Jitter float64
	// Seed makes backoff jitter (the campaign's only randomness)
	// deterministic.
	Seed int64
	// MaxStates is the per-attempt distinct-state budget (0: engine
	// default). A job that exhausts it degrades down the ladder.
	MaxStates int
	// Workers is the parallel-enumeration width of the ladder's first
	// rung (≤1: start at the sequential rung).
	Workers int
	// MinN bounds how far the shrink-n rungs descend (default 2).
	MinN int
	// NoSymbolicFallback removes the final symbolic rung from
	// enumeration ladders.
	NoSymbolicFallback bool
	// CheckpointDir, when set, gives every job a durable snapshot store
	// at <dir>/<job>.ckpt; attempts save periodic snapshots there and
	// retries resume from the newest valid one.
	CheckpointDir string
	// CheckpointEvery is the periodic snapshot cadence in expanded
	// states (default 512 when CheckpointDir is set).
	CheckpointEvery int
	// Keep is the snapshot generations the store retains (default
	// ckptio.DefaultKeep).
	Keep int
	// NoAudit skips the independent witness confirmation pass.
	NoAudit bool
	// Chaos lists faults to inject, for tests and the CI chaos job.
	Chaos []ChaosOp

	// Observer receives phase/level/event callbacks from the campaign
	// itself (campaign_attempts_total, campaign_resumes_total, audit
	// phases) and from every engine attempt it launches; nil disables them.
	Observer obs.Observer
	// Metrics, when non-nil, accumulates the campaign's counters and the
	// engines' run metrics in one shared registry.
	Metrics *obs.Registry

	// sleep replaces time.Sleep in tests; nil means real sleeping.
	sleep func(time.Duration)
}

// withDefaults fills the zero-value policy fields.
func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BackoffBase <= 0 {
		p.BackoffBase = 10 * time.Millisecond
	}
	if p.BackoffFactor < 1 {
		p.BackoffFactor = 2
	}
	if p.BackoffMax <= 0 {
		p.BackoffMax = 2 * time.Second
	}
	if p.Jitter < 0 || p.Jitter >= 1 {
		p.Jitter = 0.2
	}
	if p.MinN < 2 {
		p.MinN = 2
	}
	if p.CheckpointEvery <= 0 {
		p.CheckpointEvery = 512
	}
	if p.Keep <= 0 {
		p.Keep = ckptio.DefaultKeep
	}
	if p.sleep == nil {
		p.sleep = time.Sleep
	}
	return p
}

// Spec is a whole campaign: the jobs and the policy they run under.
type Spec struct {
	Jobs   []JobSpec
	Policy Policy
}

// FailureClass is the structured error taxonomy every failed attempt is
// classified into; the class decides the recovery action.
type FailureClass string

const (
	// ClassTransient: injected faults, recovered worker panics,
	// checkpoint-sink failures — retry the same rung after backoff.
	ClassTransient FailureClass = "transient"
	// ClassResource: a budget (deadline, states, memory) ran out —
	// resume from the checkpoint once, then degrade down the ladder.
	ClassResource FailureClass = "resource"
	// ClassCanceled: the campaign itself was canceled — stop everything.
	ClassCanceled FailureClass = "canceled"
	// ClassCorrupt: the checkpoint store had no valid snapshot left —
	// restart the rung from scratch.
	ClassCorrupt FailureClass = "corrupt"
	// ClassSpec: the protocol definition is broken — no retry can help.
	ClassSpec FailureClass = "spec"
	// ClassInternal: anything else.
	ClassInternal FailureClass = "internal"
)

// errInjected marks chaos-injected failures; Classify maps it to
// ClassTransient, the same class a real crash-and-restart presents as.
var errInjected = errors.New("campaign: injected fault")

// Classify maps an attempt error into the taxonomy.
func Classify(err error) FailureClass {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, runctl.ErrCanceled):
		return ClassCanceled
	case errors.Is(err, runctl.ErrDeadline),
		errors.Is(err, runctl.ErrStateBudget),
		errors.Is(err, runctl.ErrMemBudget):
		return ClassResource
	case errors.Is(err, errInjected):
		return ClassTransient
	case errors.Is(err, ckptio.ErrCorrupt),
		errors.Is(err, ckptio.ErrUnsupportedVersion),
		errors.Is(err, ckptio.ErrNoSnapshot):
		return ClassCorrupt
	case errors.Is(err, errSpec):
		return ClassSpec
	default:
		return ClassInternal
	}
}

// rung is one level of a job's degradation ladder.
type rung struct {
	desc    string
	engine  Engine
	n       int
	workers int
}

// ladder builds the degradation ladder for a job: the requested
// configuration first, then strictly cheaper fallbacks. Symbolic jobs have
// a single rung — the method's cost is independent of the cache count, so
// there is nothing to shrink.
func ladder(j JobSpec, p Policy) []rung {
	if j.Engine == EngineSymbolic {
		// The parallel speculation pipeline is bit-identical to the
		// sequential driver, so the worker width needs no fallback rung.
		return []rung{{desc: "symbolic", engine: EngineSymbolic, workers: p.Workers}}
	}
	var out []rung
	if p.Workers > 1 {
		out = append(out, rung{desc: fmt.Sprintf("parallel×%d", p.Workers), engine: j.Engine, n: j.N, workers: p.Workers})
	}
	out = append(out, rung{desc: "sequential", engine: j.Engine, n: j.N, workers: 1})
	for n := j.N - 1; n >= p.MinN; n-- {
		out = append(out, rung{desc: fmt.Sprintf("shrink-n%d", n), engine: j.Engine, n: n, workers: 1})
	}
	if !p.NoSymbolicFallback {
		out = append(out, rung{desc: "symbolic-fallback", engine: EngineSymbolic, workers: p.Workers})
	}
	return out
}

// AttemptRecord documents one attempt of one job.
type AttemptRecord struct {
	Attempt  int           `json:"attempt"`
	Rung     int           `json:"rung"`
	RungDesc string        `json:"rung_desc"`
	Resumed  bool          `json:"resumed,omitempty"`
	Class    FailureClass  `json:"class,omitempty"`
	Error    string        `json:"error,omitempty"`
	Backoff  time.Duration `json:"backoff_ns,omitempty"`
}

// WitnessRecord is one reported violation with its audit outcome.
type WitnessRecord struct {
	// State is the canonical rendering of the erroneous state.
	State string `json:"state"`
	// Kinds lists the violated invariants.
	Kinds []string `json:"kinds"`
	// PathLen is the witness path length in transitions.
	PathLen int `json:"path_len"`
	// Confirmed reports that the independent concrete replay reproduced
	// the erroneous state and at least one claimed invariant violation.
	Confirmed bool `json:"confirmed"`
	// AuditNote explains a failed confirmation.
	AuditNote string `json:"audit_note,omitempty"`
}

// Job verdicts.
const (
	VerdictClean       = "clean"
	VerdictViolations  = "violations"
	VerdictQuarantined = "quarantined"
	VerdictCanceled    = "canceled"
	VerdictFailed      = "failed"
)

// JobResult is the final record of one job.
type JobResult struct {
	Name     string `json:"name"`
	Protocol string `json:"protocol"`
	Engine   Engine `json:"engine"`
	N        int    `json:"n,omitempty"`
	Strict   bool   `json:"strict,omitempty"`

	// Verdict is clean, violations, quarantined, canceled or failed.
	Verdict string `json:"verdict"`
	// FinalRung and Degraded record where on the ladder the job ended.
	FinalRung string `json:"final_rung"`
	Degraded  bool   `json:"degraded,omitempty"`
	// Essential is the job's essential-state count: distinct states for
	// enumeration rungs, the history list length for symbolic rungs.
	Essential int `json:"essential"`
	// Visits is the engine's state-visit counter.
	Visits int `json:"visits"`
	// Resumes counts attempts that continued from a durable snapshot;
	// RecoveredCorruption counts loads that had to fall back past a bad
	// newest generation.
	Resumes             int `json:"resumes,omitempty"`
	RecoveredCorruption int `json:"recovered_corruption,omitempty"`

	Attempts   []AttemptRecord `json:"attempts"`
	Violations []WitnessRecord `json:"violations,omitempty"`
	// FailClass and FailError describe the terminal failure of a
	// quarantined, canceled or failed job.
	FailClass FailureClass `json:"fail_class,omitempty"`
	FailError string       `json:"fail_error,omitempty"`
}

// Audited reports whether every reported violation carries a confirmed
// witness.
func (r *JobResult) Audited() bool {
	for _, w := range r.Violations {
		if !w.Confirmed {
			return false
		}
	}
	return true
}

// runner carries one job's mutable campaign state.
type runner struct {
	ctx     context.Context
	policy  Policy
	job     JobSpec
	proto   *fsm.Protocol
	rungs   []rung
	store   *ckptio.Store // nil when checkpointing is off
	rng     *rand.Rand
	attempt int      // current attempt ordinal, for chaos "kill" scoping
	orun    *obs.Run // nil when the policy carries no observer/registry
	res     *JobResult
}

// Run executes the campaign: every job, in order, through retries,
// degradation and quarantine, then the witness audit. It returns a Report
// whose encoding is deterministic for a fixed spec. Run fails only on
// campaign-level misconfiguration; per-job failures are verdicts, not
// errors.
func Run(ctx context.Context, spec Spec) (*Report, error) {
	pol := spec.Policy.withDefaults()
	if pol.CheckpointDir != "" {
		if err := os.MkdirAll(pol.CheckpointDir, 0o755); err != nil {
			return nil, fmt.Errorf("campaign: checkpoint dir: %w", err)
		}
		// Fail before the first job starts, not at its first periodic save.
		if err := ckptio.PreflightDir(pol.CheckpointDir); err != nil {
			return nil, fmt.Errorf("campaign: checkpoint dir: %w", err)
		}
	}
	seen := map[string]bool{}
	rep := &Report{Seed: pol.Seed}
	for _, j := range spec.Jobs {
		if j.Name == "" {
			j.Name = JobName(j.Protocol, j.Engine, j.N)
		}
		if seen[j.Name] {
			return nil, fmt.Errorf("campaign: duplicate job name %q", j.Name)
		}
		seen[j.Name] = true
		rep.Jobs = append(rep.Jobs, runJob(ctx, pol, j))
	}
	sort.Slice(rep.Jobs, func(a, b int) bool { return rep.Jobs[a].Name < rep.Jobs[b].Name })
	rep.tally()
	return rep, nil
}

// jobSeed derives the per-job RNG seed from the campaign seed and the job
// name, so jitter is deterministic per (campaign, job) and independent of
// job order.
func jobSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return seed ^ int64(h.Sum64())
}

// runJob drives one job to a verdict.
func runJob(ctx context.Context, pol Policy, j JobSpec) *JobResult {
	r := &runner{
		ctx:    ctx,
		policy: pol,
		job:    j,
		rng:    rand.New(rand.NewSource(jobSeed(pol.Seed, j.Name))),
		orun:   obs.Sink{Observer: pol.Observer, Metrics: pol.Metrics}.Run("campaign", j.Protocol),
		res: &JobResult{
			Name: j.Name, Protocol: j.Protocol, Engine: j.Engine,
			N: j.N, Strict: j.Strict,
		},
	}
	r.orun.Event("campaign_jobs_total", 1)
	r.proto = j.Proto
	if r.proto == nil {
		p, err := protocols.ByName(j.Protocol)
		if err != nil {
			r.res.Verdict = VerdictFailed
			r.res.FailClass = ClassSpec
			r.res.FailError = err.Error()
			return r.res
		}
		r.proto = p
	}
	if r.res.Protocol == "" {
		r.res.Protocol = r.proto.Name
	}
	r.rungs = ladder(j, pol)
	if pol.CheckpointDir != "" {
		r.store = &ckptio.Store{
			Path: filepath.Join(pol.CheckpointDir, j.Name+".ckpt"),
			Keep: pol.Keep,
		}
	}
	r.run()
	if r.store != nil {
		// The job is decided; its snapshots have served their purpose.
		_ = r.store.Remove()
	}
	return r.res
}

// run is the retry/degradation loop. Recovery policy by class:
// transient and corrupt failures retry the same rung after backoff (a
// durable snapshot, when one survived, makes the retry a resume); a
// resource failure resumes once per rung and then degrades, except the
// state budget, whose stop is deterministic and mid-step (never
// checkpointable), so it degrades immediately; cancellation and spec
// failures end the job.
func (r *runner) run() {
	rungIdx := 0
	resumedOnRung := false
	for attempt := 1; ; attempt++ {
		if attempt > r.policy.MaxAttempts {
			r.res.Verdict = VerdictQuarantined
			r.orun.Event("campaign_quarantined_total", 1)
			return
		}
		if err := runctl.FromContext(r.ctx); err != nil {
			r.res.Verdict = VerdictCanceled
			r.res.FailClass = ClassCanceled
			r.res.FailError = err.Error()
			return
		}
		r.attempt = attempt
		rg := r.rungs[rungIdx]
		rec := AttemptRecord{Attempt: attempt, Rung: rungIdx, RungDesc: rg.desc}
		r.orun.Event("campaign_attempts_total", 1)
		if attempt > 1 {
			r.orun.Event("campaign_retries_total", 1)
		}
		done, resumed, err := r.attemptRung(rg)
		rec.Resumed = resumed
		if resumed {
			r.res.Resumes++
			r.orun.Event("campaign_resumes_total", 1)
		}
		if done {
			r.res.Attempts = append(r.res.Attempts, rec)
			r.res.FinalRung = rg.desc
			r.res.Degraded = rungIdx > 0
			if len(r.res.Violations) > 0 {
				r.res.Verdict = VerdictViolations
			} else {
				r.res.Verdict = VerdictClean
			}
			return
		}
		class := Classify(err)
		rec.Class = class
		rec.Error = err.Error()
		switch class {
		case ClassCanceled:
			r.res.Attempts = append(r.res.Attempts, rec)
			r.res.Verdict = VerdictCanceled
			r.res.FailClass = class
			r.res.FailError = err.Error()
			return
		case ClassSpec, ClassInternal:
			r.res.Attempts = append(r.res.Attempts, rec)
			r.res.Verdict = VerdictFailed
			r.res.FailClass = class
			r.res.FailError = err.Error()
			return
		case ClassResource:
			stateBudget := errors.Is(err, runctl.ErrStateBudget)
			canResume := r.hasSnapshot() && !stateBudget
			if canResume && !resumedOnRung {
				resumedOnRung = true
			} else if rungIdx+1 < len(r.rungs) {
				rungIdx++
				resumedOnRung = false
				r.dropSnapshot() // incompatible with the next rung's shape
			} else {
				r.res.Attempts = append(r.res.Attempts, rec)
				r.res.Verdict = VerdictQuarantined
				r.orun.Event("campaign_quarantined_total", 1)
				r.res.FailClass = class
				r.res.FailError = err.Error()
				return
			}
		case ClassTransient, ClassCorrupt:
			// Same rung again; backoff below.
		}
		rec.Backoff = r.backoff(attempt)
		r.res.Attempts = append(r.res.Attempts, rec)
		if rec.Backoff > 0 {
			r.policy.sleep(rec.Backoff)
		}
	}
}

// backoff computes the jittered exponential delay before the next attempt
// through the shared runctl.Backoff shape.
func (r *runner) backoff(attempt int) time.Duration {
	return runctl.Backoff{
		Base:   r.policy.BackoffBase,
		Factor: r.policy.BackoffFactor,
		Max:    r.policy.BackoffMax,
		Jitter: r.policy.Jitter,
		Rand:   r.rng,
	}.Delay(attempt)
}

// hasSnapshot reports whether the store holds any loadable snapshot.
func (r *runner) hasSnapshot() bool {
	if r.store == nil {
		return false
	}
	_, _, err := r.store.Load()
	return err == nil
}

// dropSnapshot discards all snapshot generations (degrading changes the
// run's shape, so old snapshots no longer apply).
func (r *runner) dropSnapshot() {
	if r.store != nil {
		_ = r.store.Remove()
	}
}

// attemptRung runs one attempt at one rung. done=true means the attempt
// produced a final result (recorded into r.res); otherwise err says why it
// failed. resumed reports whether the attempt continued from a snapshot.
func (r *runner) attemptRung(rg rung) (done, resumed bool, err error) {
	budget := runctl.Budget{MaxStates: r.policy.MaxStates}
	if r.policy.AttemptTimeout > 0 {
		budget.Deadline = time.Now().Add(r.policy.AttemptTimeout)
	}
	if rg.engine == EngineSymbolic {
		return r.attemptSymbolic(rg, budget)
	}
	return r.attemptEnum(rg, budget)
}

// loadSnapshot pulls the newest valid snapshot payload from the store,
// counting fallback recoveries. A missing snapshot returns (nil, nil); a
// store with only invalid snapshots returns the typed corrupt error.
func (r *runner) loadSnapshot() ([]byte, error) {
	if r.store == nil {
		return nil, nil
	}
	data, info, err := r.store.Load()
	if errors.Is(err, ckptio.ErrNoSnapshot) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if info.Generation > 0 || len(info.Skipped) > 0 {
		r.res.RecoveredCorruption++
	}
	return data, nil
}

// chaosFire applies this job's chaos ops due at the save-th periodic save
// of the current attempt. The durable save has already happened, so
// "corrupt" and "delete" attack the newest on-disk generation and "kill"
// simulates the process dying right after persisting — the canonical
// crash-recovery scenario.
func (r *runner) chaosFire(save int) error {
	for _, op := range r.policy.Chaos {
		if op.Job != r.job.Name || op.AtSave != save {
			continue
		}
		switch op.Kind {
		case "corrupt":
			if r.store != nil {
				corruptFile(r.store.Path)
			}
		case "delete":
			if r.store != nil {
				_ = os.Remove(r.store.Path)
			}
		case "kill":
			if r.attempt == 1 {
				return fmt.Errorf("%w: kill at save %d", errInjected, save)
			}
		case "wedge":
			return fmt.Errorf("%w: wedge at save %d", errInjected, save)
		}
	}
	return nil
}

// corruptFile truncates the file to half and scribbles over its tail,
// simulating a torn write plus media corruption.
func corruptFile(path string) {
	data, err := os.ReadFile(path)
	if err != nil || len(data) == 0 {
		return
	}
	data = data[:len(data)/2+1]
	for i := len(data) / 2; i < len(data); i++ {
		data[i] ^= 0xA5
	}
	_ = os.WriteFile(path, data, 0o644)
}

// attemptEnum runs one enumeration attempt (sequential or parallel,
// strict or counting) with durable periodic snapshots and chaos firing.
func (r *runner) attemptEnum(rg rung, budget runctl.Budget) (bool, bool, error) {
	opts := enum.Options{
		RunConfig: runctl.RunConfig{
			Budget:           budget,
			CheckpointOnStop: r.store != nil,
			Workers:          rg.workers,
			Observer:         r.policy.Observer,
			Metrics:          r.policy.Metrics,
		},
		Strict: r.job.Strict,
		Mode:   enumMode(rg.engine),
	}
	if r.store != nil {
		saves := 0
		opts.RunConfig.CheckpointEvery = r.policy.CheckpointEvery
		opts.OnCheckpoint = func(cp *enum.Checkpoint) error {
			data, err := cp.Encode()
			if err != nil {
				return err
			}
			if err := r.store.Save(data); err != nil {
				return err
			}
			saves++
			return r.chaosFire(saves)
		}
	}

	var cp *enum.Checkpoint
	if payload, err := r.loadSnapshot(); err != nil {
		// No valid snapshot survived; restart the rung from scratch.
		r.dropSnapshot()
	} else if payload != nil {
		decoded, err := enum.DecodeCheckpoint(payload)
		// A snapshot from a different shape (engine switch, shrunk n)
		// cannot seed this rung.
		if err == nil && decoded.Mode == enumMode(rg.engine) &&
			decoded.N == rg.n && decoded.Protocol == r.proto.Name {
			cp = decoded
		}
	}

	opts.Resume = cp
	res, err := enum.Run(r.ctx, r.proto, rg.n, opts)
	resumed := cp != nil
	if err != nil {
		return false, resumed, err
	}
	if res.Truncated {
		if r.store != nil && res.Checkpoint != nil {
			if data, eerr := res.Checkpoint.Encode(); eerr == nil {
				_ = r.store.Save(data)
			}
		}
		return false, resumed, fmt.Errorf("enumeration stopped: %w", res.StopReason)
	}
	if len(res.SpecErrors) > 0 {
		return false, resumed, fmt.Errorf("%w: %v", errSpec, res.SpecErrors[0])
	}
	r.res.Essential = res.Unique
	r.res.Visits = res.Visits
	r.res.Violations = r.auditEnum(rg, res.Violations)
	return true, resumed, nil
}

// attemptSymbolic runs one symbolic expansion attempt with the same
// durability and chaos plumbing as attemptEnum. rg.workers > 1 selects
// the parallel speculation pipeline (bit-identical results).
func (r *runner) attemptSymbolic(rg rung, budget runctl.Budget) (bool, bool, error) {
	eng, err := symbolic.NewEngine(r.proto)
	if err != nil {
		return false, false, fmt.Errorf("%w: %v", errSpec, err)
	}
	opts := symbolic.Options{
		RunConfig: runctl.RunConfig{
			Budget:           budget,
			CheckpointOnStop: r.store != nil,
			Workers:          rg.workers,
			Observer:         r.policy.Observer,
			Metrics:          r.policy.Metrics,
		},
		Strict: r.job.Strict,
	}
	if r.policy.MaxStates > 0 {
		opts.MaxVisits = r.policy.MaxStates
	}
	if r.store != nil {
		saves := 0
		opts.RunConfig.CheckpointEvery = r.policy.CheckpointEvery
		opts.OnCheckpoint = func(cp *symbolic.Checkpoint) error {
			data, err := cp.Encode()
			if err != nil {
				return err
			}
			if err := r.store.Save(data); err != nil {
				return err
			}
			saves++
			return r.chaosFire(saves)
		}
	}

	var cp *symbolic.Checkpoint
	if payload, lerr := r.loadSnapshot(); lerr != nil {
		r.dropSnapshot()
	} else if payload != nil {
		decoded, derr := symbolic.DecodeCheckpoint(payload)
		if derr == nil && decoded.Protocol == r.proto.Name {
			cp = decoded
		}
	}

	opts.Resume = cp
	res, err := eng.Run(r.ctx, opts)
	resumed := cp != nil
	if err != nil {
		return false, resumed, err
	}
	if res.Truncated {
		if r.store != nil && res.Checkpoint != nil {
			if data, eerr := res.Checkpoint.Encode(); eerr == nil {
				_ = r.store.Save(data)
			}
		}
		return false, resumed, fmt.Errorf("expansion stopped: %w", res.StopReason)
	}
	if len(res.SpecErrors) > 0 {
		return false, resumed, fmt.Errorf("%w: %v", errSpec, res.SpecErrors[0])
	}
	r.res.Essential = len(res.Essential)
	r.res.Visits = res.Visits
	r.res.Violations = r.auditSymbolic(res.Violations)
	return true, resumed, nil
}

// errSpec marks protocol-definition failures (ClassSpec).
var errSpec = errors.New("campaign: protocol specification error")
