// Command cctrace is the trace-driven workload toolchain: it materializes
// the synthetic workload generators into deterministic cctrace v1 files,
// replays trace files through the concrete simulator under any built-in
// protocol, and compares a set of protocols head-to-head on one identical
// reference stream — the classic trace-driven methodology the paper's
// protocol suite was originally evaluated with.
//
// Usage:
//
//	cctrace gen -workload migratory -caches 4 -blocks 64 -ops 100000 -o mig.trace
//	cctrace gen -workload uniform -ops 1000000 -gzip -o u.trace.gz
//	cctrace replay -protocol mesi mig.trace
//	cctrace compare -protocols msi,mesi,moesi,dragon -json report.json mig.trace
//
// Trace files may be plain text or gzipped (detected by content, not file
// name); "-" reads standard input. Replays stop cleanly on SIGINT/SIGTERM
// or when -timeout expires, reporting partial statistics.
//
// Exit codes: 0 clean, 1 usage or internal error, 2 final-state invariant
// violations or stale reads, 3 stopped early (timeout, signal, budget).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/fsm"
	"repro/internal/obs"
	"repro/internal/protocols"
	"repro/internal/replay"
	"repro/internal/runctl"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  cctrace gen     -workload KIND -caches N -blocks N -ops N [-seed S] [-gzip] -o FILE
  cctrace replay  -protocol NAME [flags] FILE
  cctrace compare -protocols A,B,... [flags] FILE

Workload kinds: %s
Protocols: %s

Run 'cctrace <subcommand> -h' for the full flag list.
`, strings.Join(replay.Kinds(), ", "), strings.Join(protocols.Names(), ", "))
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(runctl.ExitUsage)
	}
	var (
		code int
		err  error
	)
	switch os.Args[1] {
	case "gen":
		code, err = runGen(os.Args[2:])
	case "replay":
		code, err = runReplay(os.Args[2:])
	case "compare":
		code, err = runCompare(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	case "-version", "--version", "version":
		fmt.Println(runctl.VersionString("cctrace"))
		return
	default:
		fmt.Fprintf(os.Stderr, "cctrace: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(runctl.ExitUsage)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cctrace:", err)
		os.Exit(runctl.ExitUsage)
	}
	os.Exit(code)
}

// runGen materializes a workload spec into a trace file.
func runGen(args []string) (int, error) {
	fs := flag.NewFlagSet("cctrace gen", flag.ContinueOnError)
	var (
		kind    = fs.String("workload", "uniform", "workload kind ("+strings.Join(replay.Kinds(), ", ")+")")
		seed    = fs.Int64("seed", 1993, "workload RNG seed; same seed, same bytes")
		caches  = fs.Int("caches", 4, "number of caches/processors")
		blocks  = fs.Int("blocks", 16, "blocks (groups for false-sharing, locks for lock)")
		ops     = fs.Int("ops", 100000, "references to materialize")
		pwrite  = fs.Float64("pwrite", 0, "write probability (uniform, hot-block, false-sharing; 0: default 0.3)")
		hotfrac = fs.Float64("hotfrac", 0, "hot-block reference fraction (0: default 0.5)")
		burst   = fs.Int("burst", 0, "migratory read-modify-write pairs per ownership period (0: default 4)")
		rpw     = fs.Int("reads-per-write", 0, "producer-consumer reads per write (0: default 4)")
		worklen = fs.Int("work-len", 0, "lock critical-section length (0: default 4)")
		gz      = fs.Bool("gzip", false, "gzip-compress the output")
		out     = fs.String("o", "-", "output file (-: stdout)")
	)
	runctl.ParseFlags(fs, args)
	if fs.NArg() != 0 {
		return 0, fmt.Errorf("gen takes no positional arguments, got %q", fs.Args())
	}
	spec := replay.WorkloadSpec{
		Kind: *kind, Seed: *seed, Caches: *caches, Blocks: *blocks, Ops: *ops,
		PWrite: *pwrite, HotFrac: *hotfrac, Burst: *burst, ReadsPerWrite: *rpw, WorkLen: *worklen,
	}
	w := io.Writer(os.Stdout)
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return 0, err
		}
		defer f.Close()
		w = f
		n, err := replay.MaterializeTo(w, spec, *gz)
		if err != nil {
			os.Remove(*out)
			return 0, err
		}
		if err := f.Close(); err != nil {
			return 0, err
		}
		fmt.Fprintf(os.Stderr, "cctrace: wrote %d references to %s\n", n, *out)
		return runctl.ExitClean, nil
	}
	if _, err := replay.MaterializeTo(w, spec, *gz); err != nil {
		return 0, err
	}
	return runctl.ExitClean, nil
}

// replayFlags are the flags shared by the replay and compare subcommands.
type replayFlags struct {
	blockSize   int
	maxBlocks   int
	capacity    int
	maxOps      int64
	skipOps     int64
	strict      bool
	progress    bool
	metricsJSON string
	timeout     time.Duration
}

// addReplayFlags registers the shared replay flags on fs.
func addReplayFlags(fs *flag.FlagSet) *replayFlags {
	rf := &replayFlags{}
	fs.IntVar(&rf.blockSize, "blocksize", 0, "address-to-block granularity in bytes (0: trace header, default 64)")
	fs.IntVar(&rf.maxBlocks, "max-blocks", 0, "distinct-block cap (0: 4096)")
	fs.IntVar(&rf.capacity, "capacity", 0, "cache capacity in blocks (0: unbounded)")
	fs.Int64Var(&rf.maxOps, "max-ops", 0, "replay at most this many references (0: whole trace)")
	fs.Int64Var(&rf.skipOps, "skip-ops", 0, "skip this many leading references before replaying")
	fs.BoolVar(&rf.strict, "strict", false, "check the CleanShared extension in the final invariants")
	fs.BoolVar(&rf.progress, "progress", false, "print one progress line per interval to stderr")
	fs.StringVar(&rf.metricsJSON, "metrics-json", "", "write the run's metrics snapshot to this JSON file")
	fs.DurationVar(&rf.timeout, "timeout", 0, "wall-clock limit for the whole run (0: none)")
	return rf
}

// options converts the parsed flags into replay.Options, wiring the
// observer and registry.
func (rf *replayFlags) options(reg *obs.Registry) replay.Options {
	opts := replay.Options{
		BlockSize: rf.blockSize,
		MaxBlocks: rf.maxBlocks,
		Capacity:  rf.capacity,
		MaxOps:    rf.maxOps,
		SkipOps:   rf.skipOps,
		Strict:    rf.strict,
	}
	if rf.progress {
		opts.Observer = obs.Progress(os.Stderr)
	}
	opts.Metrics = reg
	return opts
}

// writeMetrics flushes the registry to -metrics-json, if requested.
func (rf *replayFlags) writeMetrics(reg *obs.Registry) error {
	if rf.metricsJSON == "" {
		return nil
	}
	return obs.WriteFile(rf.metricsJSON, reg)
}

// openTrace opens the positional trace argument ("-": stdin).
func openTrace(fs *flag.FlagSet) (io.ReadCloser, error) {
	if fs.NArg() != 1 {
		return nil, fmt.Errorf("expected exactly one trace file argument, got %d", fs.NArg())
	}
	name := fs.Arg(0)
	if name == "-" {
		return io.NopCloser(os.Stdin), nil
	}
	return os.Open(name)
}

// runReplay replays one trace through one protocol.
func runReplay(args []string) (int, error) {
	fs := flag.NewFlagSet("cctrace replay", flag.ContinueOnError)
	protoName := fs.String("protocol", "illinois", "built-in protocol name ("+strings.Join(protocols.Names(), ", ")+")")
	rf := addReplayFlags(fs)
	runctl.ParseFlags(fs, args)

	p, err := protocols.ByName(*protoName)
	if err != nil {
		return 0, err
	}
	in, err := openTrace(fs)
	if err != nil {
		return 0, err
	}
	defer in.Close()

	ctx, stop := runctl.WithSignals(context.Background(), rf.timeout)
	defer stop()
	reg := obs.NewRegistry()
	res, err := replay.Replay(ctx, in, p, rf.options(reg))
	if err != nil {
		return 0, err
	}
	if err := rf.writeMetrics(reg); err != nil {
		return 0, err
	}

	rep := &replay.ComparisonReport{}
	rep.Schema = replay.ReportSchema
	rep.AddResult(res)
	fmt.Print(rep.Table())
	return exitCodeFor(res), nil
}

// runCompare fans one trace out to several protocols.
func runCompare(args []string) (int, error) {
	fs := flag.NewFlagSet("cctrace compare", flag.ContinueOnError)
	protoNames := fs.String("protocols", "msi,mesi,moesi,dragon", "comma-separated protocol names")
	jsonOut := fs.String("json", "", "write the comparison report as JSON to this file (-: stdout)")
	rf := addReplayFlags(fs)
	runctl.ParseFlags(fs, args)

	var protos []*fsm.Protocol
	for _, name := range strings.Split(*protoNames, ",") {
		p, err := protocols.ByName(strings.TrimSpace(name))
		if err != nil {
			return 0, err
		}
		protos = append(protos, p)
	}
	in, err := openTrace(fs)
	if err != nil {
		return 0, err
	}
	defer in.Close()

	ctx, stop := runctl.WithSignals(context.Background(), rf.timeout)
	defer stop()
	reg := obs.NewRegistry()
	cr, err := replay.Compare(ctx, in, protos, rf.options(reg))
	if err != nil {
		return 0, err
	}
	if err := rf.writeMetrics(reg); err != nil {
		return 0, err
	}

	rep := replay.NewReport(cr)
	enc, err := rep.Encode()
	if err != nil {
		return 0, err
	}
	switch *jsonOut {
	case "":
	case "-":
		os.Stdout.Write(enc)
	default:
		if err := os.WriteFile(*jsonOut, enc, 0o644); err != nil {
			return 0, err
		}
	}
	if *jsonOut != "-" {
		fmt.Print(rep.Table())
	}

	code := runctl.ExitClean
	for _, r := range cr.Results {
		if c := exitCodeFor(r); c > code {
			code = c
		}
	}
	return code, nil
}

// exitCodeFor classifies one replay result: violations and stale reads are
// incoherence (2), truncation is an early stop (3), otherwise clean.
func exitCodeFor(r *replay.Result) int {
	if len(r.Violations) > 0 || r.Stats.StaleReads > 0 {
		return runctl.ExitViolation
	}
	if r.Truncated && r.StopReason != nil {
		fmt.Fprintf(os.Stderr, "cctrace: %s stopped early: %v\n", r.Protocol, r.StopReason)
		return runctl.ExitStopped
	}
	return runctl.ExitClean
}
