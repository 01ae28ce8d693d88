// Command ccenum runs the explicit-state baselines of the paper's Section
// 3.1 for a fixed number of caches: the exhaustive search of Figure 2
// (strict tuple equivalence) and the counting-equivalence variant of
// Definition 5.
//
// Long enumerations are resilient: the run stops cleanly on SIGINT/SIGTERM
// or when -timeout expires, optionally writing a resumable checkpoint, and
// -resume continues an interrupted run to the exact state counts an
// uninterrupted run would have produced.
//
// Usage:
//
//	ccenum -protocol illinois -n 4 [-mode strict|counting|both] [-strict]
//	       [-workers k] [-timeout 30s] [-checkpoint run.ckpt] [-checkpoint-keep 3]
//	       [-mem-budget bytes [-spill-dir dir]]
//	ccenum -resume run.ckpt [-workers k] [-timeout 30s] [-checkpoint run.ckpt]
//
// With -mem-budget alone the run stops cleanly (exit 3, resumable) when the
// estimated resident footprint crosses the budget; adding -spill-dir turns
// the same budget into an out-of-core run: cold visited/tuple shards spill
// to checksummed files under the directory and stream back for duplicate
// detection at level boundaries, so the enumeration completes in bounded
// memory with bit-identical results.
//
// Checkpoints go through the durable snapshot store (internal/ckptio):
// atomic checksummed writes, rotation keeping the last -checkpoint-keep
// good snapshots, and automatic fallback to the newest valid one when the
// latest is truncated or corrupt.
//
// Exit codes: 0 verified clean, 1 usage or internal error, 2 violations
// found, 3 stopped early (timeout, signal or budget).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/ckptio"
	"repro/internal/enum"
	"repro/internal/fsm"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/protocols"
	"repro/internal/report"
	"repro/internal/runctl"
)

// cliOpts carries everything below the protocol/n pair; the run function
// takes it whole so tests can drive exact configurations.
type cliOpts struct {
	mode        string
	strict      bool
	max         int
	workers     int
	memBudget   int64  // resident-bytes budget (0: none)
	spillDir    string // out-of-core spill directory (needs memBudget)
	checkpoint  string // path to save a checkpoint to when the run stops
	resume      string // path to load a checkpoint from
	keep        int    // good snapshot generations retained at -checkpoint
	progress    bool   // one stderr line per BFS level
	metricsJSON string // write the metrics snapshot here after the run
	graphOut    string // write the concrete transition graph here ("-": stdout)
	graphFormat string // graph rendering: dot or json
}

func main() {
	var (
		protoName   = flag.String("protocol", "illinois", "built-in protocol name")
		n           = flag.Int("n", 4, "number of caches")
		mode        = flag.String("mode", "both", "strict, counting, or both")
		strict      = flag.Bool("strict", false, "enable the clean-state/memory extension check")
		max         = flag.Int("max", 0, "state cap (0: default)")
		workers     = flag.Int("workers", 1, "parallel BFS workers (1: sequential, 0: GOMAXPROCS)")
		memBudget   = flag.Int64("mem-budget", 0, "resident memory budget in bytes (0: none)")
		spillDir    = flag.String("spill-dir", "", "spill cold state shards to this directory instead of stopping at -mem-budget")
		timeout     = flag.Duration("timeout", 0, "wall-clock limit for the whole run (0: none)")
		checkpoint  = flag.String("checkpoint", "", "write a resumable checkpoint here when the run is stopped")
		keep        = flag.Int("checkpoint-keep", ckptio.DefaultKeep, "good checkpoint snapshots to retain (rotation)")
		resume      = flag.String("resume", "", "resume an interrupted run from this checkpoint file")
		progress    = flag.Bool("progress", false, "print one progress line per BFS level to stderr")
		metricsJSON = flag.String("metrics-json", "", "write the run's metrics snapshot to this JSON file")
		graphOut    = flag.String("graph-out", "", "write the run's concrete transition graph to this file (\"-\": stdout; needs a single -mode)")
		graphFormat = flag.String("graph-format", "dot", "transition-graph rendering: dot or json")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile  = flag.String("memprofile", "", "write an allocation profile to this file on exit")
		showVersion = flag.Bool("version", false, "print version information and exit")
	)
	runctl.ParseFlags(flag.CommandLine, os.Args[1:])

	if *showVersion {
		fmt.Println(runctl.VersionString("ccenum"))
		os.Exit(runctl.ExitClean)
	}

	stopProf, err := runctl.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccenum:", err)
		os.Exit(1)
	}
	// os.Exit skips deferred calls, so every exit path flushes the profiles
	// explicitly first.
	exit := func(code int) {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "ccenum:", err)
			if code == 0 {
				code = 1
			}
		}
		os.Exit(code)
	}

	ctx, stop := runctl.WithSignals(context.Background(), *timeout)
	defer stop()

	code, err := run(ctx, *protoName, *n, cliOpts{
		mode: *mode, strict: *strict, max: *max, workers: *workers,
		memBudget: *memBudget, spillDir: *spillDir,
		checkpoint: *checkpoint, resume: *resume, keep: *keep,
		progress: *progress, metricsJSON: *metricsJSON,
		graphOut: *graphOut, graphFormat: *graphFormat,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccenum:", err)
		exit(runctl.ExitUsage)
	}
	exit(code)
}

// run executes the requested enumerations and returns the process exit code
// (0 clean, 2 violations, 3 stopped early).
func run(ctx context.Context, protoName string, n int, o cliOpts) (int, error) {
	if o.spillDir != "" && o.memBudget <= 0 {
		return 0, fmt.Errorf("-spill-dir requires -mem-budget: spilling is triggered by the memory budget")
	}
	if o.graphOut != "" {
		switch o.graphFormat {
		case "dot", "json":
		default:
			return 0, fmt.Errorf("invalid -graph-format %q (want dot or json)", o.graphFormat)
		}
		if o.resume == "" && o.mode == "both" {
			return 0, fmt.Errorf("-graph-out needs a single -mode (strict or counting), not %q", o.mode)
		}
	}
	// graphProto/graphMode record what -graph-out should render, resolved in
	// whichever branch below selects the protocol and equivalence.
	var graphProto *fsm.Protocol
	var graphMode string
	workers := o.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	opts := enum.Options{
		RunConfig: runctl.RunConfig{
			Budget:           runctl.Budget{MaxBytes: o.memBudget},
			CheckpointOnStop: o.checkpoint != "",
			Workers:          workers,
			SpillDir:         o.spillDir,
		},
		Strict:    o.strict,
		MaxStates: o.max,
	}
	if o.progress {
		opts.RunConfig.Observer = obs.Progress(os.Stderr)
	}
	if o.metricsJSON != "" {
		opts.RunConfig.Metrics = obs.NewRegistry()
	}
	if o.checkpoint != "" {
		// Probe the checkpoint directory up front: an unwritable -checkpoint
		// target should fail before the enumeration, not at the stop snapshot.
		if err := (&ckptio.Store{Path: o.checkpoint, Keep: o.keep}).Preflight(); err != nil {
			return 0, err
		}
	}

	type outcome struct {
		name string
		res  *enum.Result
	}
	var outcomes []outcome

	if o.resume != "" {
		data, info, err := (&ckptio.Store{Path: o.resume, Keep: o.keep}).Load()
		if err != nil {
			return 0, err
		}
		if info.Generation > 0 {
			fmt.Fprintf(os.Stderr, "ccenum: newest checkpoint unusable (%v); resuming from older snapshot %s\n",
				info.Skipped[0], info.Path)
		}
		cp, err := enum.DecodeCheckpoint(data)
		if err != nil {
			return 0, err
		}
		p, err := protocols.ByName(cp.Protocol)
		if err != nil {
			return 0, err
		}
		n = cp.N
		opts.Resume = cp
		res, err := enum.Run(ctx, p, n, opts)
		if err != nil {
			return 0, err
		}
		outcomes = append(outcomes, outcome{"resumed " + cp.Mode, res})
		protoName = cp.Protocol
		graphProto, graphMode = p, cp.Mode
	} else {
		p, err := protocols.ByName(protoName)
		if err != nil {
			return 0, err
		}
		type runner struct {
			name string
			mode string
		}
		var runners []runner
		switch o.mode {
		case "strict":
			runners = []runner{{"strict (Figure 2)", enum.ModeStrict}}
		case "counting":
			runners = []runner{{"counting (Definition 5)", enum.ModeCounting}}
		case "both":
			runners = []runner{
				{"strict (Figure 2)", enum.ModeStrict},
				{"counting (Definition 5)", enum.ModeCounting},
			}
		default:
			return 0, fmt.Errorf("invalid -mode %q", o.mode)
		}
		if o.checkpoint != "" && len(runners) > 1 {
			return 0, fmt.Errorf("-checkpoint needs a single -mode (strict or counting), not %q", o.mode)
		}
		graphProto, graphMode = p, runners[0].mode
		for _, r := range runners {
			opts.Mode = r.mode
			res, err := enum.Run(ctx, p, n, opts)
			if err != nil {
				return 0, err
			}
			outcomes = append(outcomes, outcome{r.name, res})
		}
	}

	t := report.NewTable("equivalence", "distinct states", "state tuples", "visits", "violations", "truncated")
	code := runctl.ExitClean
	for _, oc := range outcomes {
		res := oc.res
		t.AddRow(oc.name, res.Unique, res.TupleStates, res.Visits, len(res.Violations), res.Truncated)
		for _, v := range res.Violations {
			fmt.Fprintf(os.Stderr, "erroneous state %s: %s\n", v.Config, v.Violations[0].Error())
			code = runctl.ExitViolation
		}
		for _, we := range res.WorkerErrors {
			fmt.Fprintf(os.Stderr, "recovered worker panic (results unaffected): %v\n", we)
		}
		if res.Truncated {
			fmt.Fprintf(os.Stderr, "ccenum: %s stopped early: %v\n", oc.name, res.StopReason)
			if o.checkpoint != "" && res.Checkpoint != nil {
				data, err := res.Checkpoint.Encode()
				if err != nil {
					return 0, fmt.Errorf("saving checkpoint: %w", err)
				}
				if err := (&ckptio.Store{Path: o.checkpoint, Keep: o.keep}).Save(data); err != nil {
					return 0, fmt.Errorf("saving checkpoint: %w", err)
				}
				fmt.Fprintf(os.Stderr, "ccenum: checkpoint written to %s (resume with -resume %s)\n", o.checkpoint, o.checkpoint)
			}
			if code == runctl.ExitClean {
				code = runctl.ExitStopped
			}
		}
	}
	fmt.Printf("protocol %s, n=%d caches\n%s", protoName, n, t.String())
	if o.metricsJSON != "" {
		if err := obs.WriteFile(o.metricsJSON, opts.RunConfig.Metrics); err != nil {
			return 0, err
		}
	}
	if o.graphOut != "" {
		if code == runctl.ExitStopped {
			fmt.Fprintln(os.Stderr, "ccenum: run stopped early; skipping -graph-out (the graph must cover the full reachable set)")
		} else if err := writeGraph(graphProto, n, graphMode, o); err != nil {
			return 0, err
		}
	}
	return code, nil
}

// writeGraph renders the concrete transition diagram of the completed run
// — the explicit-state counterpart of the paper's Figure 4 — and writes it
// to o.graphOut ("-" for stdout).
func writeGraph(p *fsm.Protocol, n int, mode string, o cliOpts) error {
	g, err := graph.BuildConcrete(p, n, mode, o.max)
	if err != nil {
		return err
	}
	var data []byte
	if o.graphFormat == "json" {
		if data, err = g.JSON(); err != nil {
			return err
		}
	} else {
		data = []byte(g.DOT())
	}
	if o.graphOut == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(o.graphOut, data, 0o644)
}
