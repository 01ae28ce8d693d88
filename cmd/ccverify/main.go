// Command ccverify verifies a cache coherence protocol with the symbolic
// state expansion method of Pong & Dubois (SPAA 1993).
//
// Usage:
//
//	ccverify -protocol illinois [-strict] [-log] [-dot out.dot] [-crosscheck 2,3,4]
//	ccverify -spec myprotocol.ccpsl [-local-dot out.dot]
//	ccverify -protocol illinois -timeout 30s -checkpoint run.ckpt
//	ccverify -protocol illinois -resume run.ckpt
//	ccverify -run symbolic -progress illinois
//	ccverify -run enum-strict -n 4 -metrics-json run-metrics.json illinois
//	ccverify -symbolic-workers 8 synthetic-24
//
// The protocol may also be named as the positional argument, as in the last
// three forms. -run selects the engine: symbolic (the default: the full
// pipeline with graph construction and cross-checks), enum-strict (Figure 2
// exhaustive search for -n caches) or enum-counting (the Definition 5
// counting-equivalence variant).
//
// It prints the protocol's essential states with their context variables,
// the verdict (permissible or erroneous, with witness paths), and optionally
// the expansion log and the global transition diagram in Graphviz DOT form.
// Runs stop cleanly on SIGINT/SIGTERM or when -timeout expires, reporting a
// structured stop reason; -checkpoint preserves the interrupted symbolic
// expansion and -resume continues it. -symbolic-workers k (k > 1) runs the
// expansion with the parallel speculation pipeline — results are
// bit-identical to the sequential engine, and checkpoints are portable
// between the two drivers.
//
// Observability: -progress prints one line per expansion level (and per
// completed phase) to stderr, and -metrics-json FILE writes the run's full
// metrics snapshot — counters, gauges and phase-timing histograms — as
// deterministic JSON (see docs/observability.md).
//
// Exit codes: 0 verified clean, 1 usage or internal error, 2 violations
// found, 3 stopped early (timeout, signal or budget).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/ccpsl"
	"repro/internal/ckptio"
	"repro/internal/core"
	"repro/internal/enum"
	"repro/internal/fsm"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/protocols"
	"repro/internal/report"
	"repro/internal/runctl"
	"repro/internal/symbolic"
)

// cliOpts carries the output and resilience flags; run takes it whole so
// tests can drive exact configurations.
type cliOpts struct {
	engine      string // -run: symbolic, enum-strict or enum-counting
	n           int    // cache count for the enum engines
	symWorkers  int    // parallel symbolic speculation workers (≤ 1: sequential)
	strict      bool
	showLog     bool
	dotFile     string
	localDot    string
	crossCheck  string
	jsonFile    string
	checkpoint  string // path to save a checkpoint to when the run stops
	resume      string // path to load a checkpoint from
	keep        int    // good snapshot generations retained at -checkpoint
	progress    bool   // one stderr line per expansion level and phase
	metricsJSON string // write the metrics snapshot here after the run
}

// observability builds the run's observer and metrics registry from the
// -progress / -metrics-json flags; both are nil (zero overhead) when the
// flags are off.
func (o cliOpts) observability() (obs.Observer, *obs.Registry) {
	var observer obs.Observer
	if o.progress {
		observer = obs.Progress(os.Stderr)
	}
	var reg *obs.Registry
	if o.metricsJSON != "" {
		reg = obs.NewRegistry()
	}
	return observer, reg
}

// writeMetrics flushes the registry snapshot to -metrics-json, if set.
func (o cliOpts) writeMetrics(reg *obs.Registry) error {
	if o.metricsJSON == "" {
		return nil
	}
	return obs.WriteFile(o.metricsJSON, reg)
}

func main() {
	var (
		protoName   = flag.String("protocol", "", "built-in protocol name ("+strings.Join(protocols.Names(), ", ")+"); may also be given as the positional argument")
		specFile    = flag.String("spec", "", "path to a ccpsl protocol specification")
		engine      = flag.String("run", "symbolic", "engine: symbolic (full pipeline), enum-strict or enum-counting")
		nCaches     = flag.Int("n", 4, "cache count for the enum engines")
		symWorkers  = flag.Int("symbolic-workers", 1, "parallel speculation workers for the symbolic expansion (1: sequential)")
		strict      = flag.Bool("strict", false, "enable the clean-state/memory consistency extension check")
		showLog     = flag.Bool("log", false, "print the expansion visit log (Appendix A.2 style)")
		dotFile     = flag.String("dot", "", "write the global transition diagram to this DOT file")
		localDot    = flag.String("local-dot", "", "write the per-cache diagram (Figure 1 style) to this DOT file")
		crossCheck  = flag.String("crosscheck", "", "comma-separated cache counts for explicit-state cross-validation, e.g. 2,3,4")
		compare     = flag.String("compare", "", "compare the global diagrams of two protocols, e.g. illinois,firefly")
		jsonFile    = flag.String("json", "", "write the machine-readable report to this JSON file")
		timeout     = flag.Duration("timeout", 0, "wall-clock limit for the whole run (0: none)")
		checkpoint  = flag.String("checkpoint", "", "write a resumable checkpoint here when the run is stopped")
		keep        = flag.Int("checkpoint-keep", ckptio.DefaultKeep, "good checkpoint snapshots to retain (rotation)")
		resume      = flag.String("resume", "", "resume an interrupted symbolic expansion from this checkpoint file")
		progress    = flag.Bool("progress", false, "print one progress line per expansion level (and per phase) to stderr")
		metricsJSON = flag.String("metrics-json", "", "write the run's metrics snapshot to this JSON file")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile  = flag.String("memprofile", "", "write an allocation profile to this file on exit")
		showVersion = flag.Bool("version", false, "print version information and exit")
	)
	runctl.ParseFlags(flag.CommandLine, os.Args[1:])
	if flag.NArg() == 1 && *protoName == "" && *specFile == "" {
		*protoName = flag.Arg(0)
	} else if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "ccverify: unexpected arguments %q\n", flag.Args())
		os.Exit(runctl.ExitUsage)
	}

	if *showVersion {
		fmt.Println(runctl.VersionString("ccverify"))
		os.Exit(runctl.ExitClean)
	}

	stopProf, err := runctl.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccverify:", err)
		os.Exit(1)
	}
	// os.Exit skips deferred calls, so every exit path flushes the profiles
	// explicitly first.
	exit := func(code int) {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "ccverify:", err)
			if code == 0 {
				code = 1
			}
		}
		os.Exit(code)
	}

	if *compare != "" {
		if err := runCompare(*compare); err != nil {
			fmt.Fprintln(os.Stderr, "ccverify:", err)
			exit(runctl.ExitUsage)
		}
		exit(runctl.ExitClean)
	}

	ctx, stop := runctl.WithSignals(context.Background(), *timeout)
	defer stop()

	code, err := run(ctx, *protoName, *specFile, cliOpts{
		engine: *engine, n: *nCaches, symWorkers: *symWorkers,
		strict: *strict, showLog: *showLog, dotFile: *dotFile, localDot: *localDot,
		crossCheck: *crossCheck, jsonFile: *jsonFile,
		checkpoint: *checkpoint, resume: *resume, keep: *keep,
		progress: *progress, metricsJSON: *metricsJSON,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccverify:", err)
		exit(runctl.ExitUsage)
	}
	exit(code)
}

// runCompare builds both global diagrams and prints the paper-motivated
// "similarities and disparities" comparison.
func runCompare(pair string) error {
	parts := strings.Split(pair, ",")
	if len(parts) != 2 {
		return fmt.Errorf("-compare needs exactly two protocol names, got %q", pair)
	}
	var gs []*graph.Global
	for _, name := range parts {
		p, err := protocols.ByName(name)
		if err != nil {
			return err
		}
		rep, err := core.Verify(p, core.Options{BuildGraph: true})
		if err != nil {
			return err
		}
		if rep.Graph == nil {
			return fmt.Errorf("%s is erroneous; nothing to compare", p.Name)
		}
		gs = append(gs, rep.Graph)
	}
	fmt.Printf("comparing %s and %s:\n", gs[0].Protocol.Name, gs[1].Protocol.Name)
	fmt.Print(graph.Compare(gs[0], gs[1]).String())
	return nil
}

// run dispatches on -run, threads the observability flags through, and
// returns the process exit code (0 clean, 2 violations, 3 stopped early).
func run(ctx context.Context, protoName, specFile string, o cliOpts) (int, error) {
	p, err := loadProtocol(protoName, specFile)
	if err != nil {
		return 0, err
	}
	observer, reg := o.observability()
	var code int
	switch o.engine {
	case "", "symbolic":
		code, err = runSymbolic(ctx, p, o, observer, reg)
	case "enum-strict", "enum-counting":
		code, err = runEnumEngine(ctx, p, o, observer, reg)
	default:
		return 0, fmt.Errorf("invalid -run %q (want symbolic, enum-strict or enum-counting)", o.engine)
	}
	if err != nil {
		return code, err
	}
	if err := o.writeMetrics(reg); err != nil {
		return 0, err
	}
	return code, nil
}

// runEnumEngine is the -run enum-strict / enum-counting path: one
// explicit-state enumeration at -n caches. Checkpoints and the symbolic
// pipeline's outputs belong to ccenum / the symbolic path.
func runEnumEngine(ctx context.Context, p *fsm.Protocol, o cliOpts, observer obs.Observer, reg *obs.Registry) (int, error) {
	if o.checkpoint != "" || o.resume != "" || o.crossCheck != "" || o.dotFile != "" || o.showLog || o.jsonFile != "" {
		return 0, fmt.Errorf("-run %s supports only -n, -strict, -progress and -metrics-json (use ccenum for checkpointed enumeration)", o.engine)
	}
	mode := enum.ModeStrict
	if o.engine == "enum-counting" {
		mode = enum.ModeCounting
	}
	res, err := enum.Run(ctx, p, o.n, enum.Options{
		RunConfig: runctl.RunConfig{Observer: observer, Metrics: reg},
		Strict:    o.strict,
		Mode:      mode,
	})
	if err != nil {
		return 0, err
	}
	fmt.Printf("protocol %s, n=%d caches (%s): %d distinct states, %d visits, %d violations\n",
		p.Name, o.n, o.engine, res.Unique, res.Visits, len(res.Violations))
	for _, v := range res.Violations {
		fmt.Fprintf(os.Stderr, "erroneous state %s: %s\n", v.Config, v.Violations[0].Error())
	}
	code := runctl.ExitClean
	if len(res.Violations) > 0 {
		code = runctl.ExitViolation
	}
	if res.Truncated {
		fmt.Fprintf(os.Stderr, "ccverify: stopped early: %v\n", res.StopReason)
		if code == runctl.ExitClean {
			code = runctl.ExitStopped
		}
	}
	return code, nil
}

// runSymbolic executes the full verification pipeline (the default -run
// symbolic engine).
func runSymbolic(ctx context.Context, p *fsm.Protocol, o cliOpts, observer obs.Observer, reg *obs.Registry) (int, error) {
	opts := core.Options{
		Strict:           o.strict,
		RecordLog:        o.showLog,
		BuildGraph:       true,
		CheckpointOnStop: o.checkpoint != "",
		SymbolicWorkers:  o.symWorkers,
		Observer:         observer,
		Metrics:          reg,
	}
	var err error
	if o.checkpoint != "" {
		// Probe the checkpoint directory up front: an unwritable -checkpoint
		// target should fail before the expansion, not at the stop snapshot.
		if err := (&ckptio.Store{Path: o.checkpoint, Keep: o.keep}).Preflight(); err != nil {
			return 0, err
		}
	}
	if o.crossCheck != "" {
		for _, part := range strings.Split(o.crossCheck, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 1 {
				return 0, fmt.Errorf("invalid -crosscheck entry %q", part)
			}
			opts.CrossCheckN = append(opts.CrossCheckN, n)
		}
	}
	if o.resume != "" {
		data, info, err := (&ckptio.Store{Path: o.resume, Keep: o.keep}).Load()
		if err != nil {
			return 0, err
		}
		if info.Generation > 0 {
			fmt.Fprintf(os.Stderr, "ccverify: newest checkpoint unusable (%v); resuming from older snapshot %s\n",
				info.Skipped[0], info.Path)
		}
		cp, err := symbolic.DecodeCheckpoint(data)
		if err != nil {
			return 0, err
		}
		opts.Resume = cp
	}

	rep, err := core.VerifyContext(ctx, p, opts)
	if err != nil && !runctl.IsStop(err) {
		return 0, err
	}
	stopped := err != nil
	fmt.Print(rep.Summary())
	if stopped {
		fmt.Fprintf(os.Stderr, "ccverify: stopped early: %v\n", err)
		if o.checkpoint != "" && rep.Symbolic.Checkpoint != nil {
			data, err := rep.Symbolic.Checkpoint.Encode()
			if err != nil {
				return 0, fmt.Errorf("saving checkpoint: %w", err)
			}
			if err := (&ckptio.Store{Path: o.checkpoint, Keep: o.keep}).Save(data); err != nil {
				return 0, fmt.Errorf("saving checkpoint: %w", err)
			}
			fmt.Fprintf(os.Stderr, "ccverify: checkpoint written to %s (resume with -resume %s)\n", o.checkpoint, o.checkpoint)
		}
		return runctl.ExitStopped, nil
	}

	if rep.Symbolic.OK() {
		if dead := core.DeadRules(rep); len(dead) > 0 {
			fmt.Printf("  warning: %d unreachable rule(s): %s\n", len(dead), strings.Join(dead, ", "))
		}
	}

	if o.showLog {
		t := report.NewTable("#", "from", "event", "to", "disposition")
		for i, v := range rep.Symbolic.Log {
			t.AddRow(i+1, v.From.StructureString(p), v.Label, v.To.StructureString(p), v.Outcome)
		}
		fmt.Println("\nExpansion log:")
		fmt.Print(t.String())
	}

	if o.dotFile != "" {
		if rep.Graph == nil {
			return 0, fmt.Errorf("no global diagram available (protocol erroneous?)")
		}
		if err := os.WriteFile(o.dotFile, []byte(rep.Graph.DOT()), 0o644); err != nil {
			return 0, err
		}
		fmt.Printf("wrote global diagram to %s\n", o.dotFile)
	}
	if o.localDot != "" {
		l := graph.BuildLocal(p)
		if err := os.WriteFile(o.localDot, []byte(l.DOT()), 0o644); err != nil {
			return 0, err
		}
		fmt.Printf("wrote per-cache diagram to %s\n", o.localDot)
	}
	if o.jsonFile != "" {
		data, err := rep.JSON()
		if err != nil {
			return 0, err
		}
		if err := os.WriteFile(o.jsonFile, data, 0o644); err != nil {
			return 0, err
		}
		fmt.Printf("wrote JSON report to %s\n", o.jsonFile)
	}

	if !rep.OK() {
		return runctl.ExitViolation, nil
	}
	return runctl.ExitClean, nil
}

func loadProtocol(protoName, specFile string) (*fsm.Protocol, error) {
	switch {
	case protoName != "" && specFile != "":
		return nil, fmt.Errorf("use either -protocol or -spec, not both")
	case protoName != "":
		return protocols.ByName(protoName)
	case specFile != "":
		src, err := os.ReadFile(specFile)
		if err != nil {
			return nil, err
		}
		return ccpsl.Parse(string(src))
	default:
		return nil, fmt.Errorf("one of -protocol or -spec is required")
	}
}
