// Command ccsim drives the concrete bus-based multiprocessor simulator:
// trace-driven execution of any built-in protocol with live coherence
// checking, plus an abstraction cross-check against the symbolic essential
// states (the executable Theorem 1).
//
// Long runs stop cleanly on SIGINT/SIGTERM or when -timeout expires,
// reporting a structured stop reason.
//
// Usage:
//
//	ccsim -protocol illinois -caches 8 -blocks 32 -workload migratory -ops 1000000
//	ccsim -protocol dragon -crosscheck 2,3,4
//	ccsim -protocol firefly -ops 100000000 -timeout 1m
//
// To replay a recorded cctrace file instead of a generated workload, use
// cctrace replay; "cctrace replay -protocol P -capacity 8 FILE" matches
// ccsim's default cache capacity.
//
// Exit codes: 0 coherent, 1 usage or internal error, 2 violations found,
// 3 stopped early (timeout or signal).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/fsm"
	"repro/internal/protocols"
	"repro/internal/report"
	"repro/internal/runctl"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	var (
		protoName   = flag.String("protocol", "illinois", "built-in protocol name ("+strings.Join(protocols.Names(), ", ")+")")
		caches      = flag.Int("caches", 4, "number of caches/processors")
		blocks      = flag.Int("blocks", 16, "number of memory blocks")
		capacity    = flag.Int("capacity", 8, "cache capacity in blocks (0: unbounded)")
		workload    = flag.String("workload", "uniform", "uniform, hot-block, migratory, or producer-consumer")
		ops         = flag.Int("ops", 1000000, "number of memory references")
		seed        = flag.Int64("seed", 1993, "workload RNG seed")
		pwrite      = flag.Float64("pwrite", 0.3, "write probability (uniform/hot-block)")
		crossCheck  = flag.String("crosscheck", "", "comma-separated cache counts for symbolic cross-validation")
		timeout     = flag.Duration("timeout", 0, "wall-clock limit for the whole run (0: none)")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile  = flag.String("memprofile", "", "write an allocation profile to this file on exit")
		showVersion = flag.Bool("version", false, "print version information and exit")
	)
	runctl.ParseFlags(flag.CommandLine, os.Args[1:])

	if *showVersion {
		fmt.Println(runctl.VersionString("ccsim"))
		os.Exit(runctl.ExitClean)
	}

	stopProf, err := runctl.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccsim:", err)
		os.Exit(1)
	}
	// os.Exit skips deferred calls, so every exit path flushes the profiles
	// explicitly first.
	exit := func(code int) {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "ccsim:", err)
			if code == 0 {
				code = 1
			}
		}
		os.Exit(code)
	}

	ctx, stop := runctl.WithSignals(context.Background(), *timeout)
	defer stop()

	code, err := run(ctx, *protoName, *caches, *blocks, *capacity, *workload, *ops, *seed, *pwrite, *crossCheck)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccsim:", err)
		exit(runctl.ExitUsage)
	}
	exit(code)
}

// run executes the simulation (or cross-check) and returns the process
// exit code (0 clean, 2 violations, 3 stopped early).
func run(ctx context.Context, protoName string, caches, blocks, capacity int, workload string, ops int, seed int64, pwrite float64, crossCheck string) (int, error) {
	p, err := protocols.ByName(protoName)
	if err != nil {
		return 0, err
	}

	if crossCheck != "" {
		var ns []int
		for _, part := range strings.Split(crossCheck, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 1 {
				return 0, fmt.Errorf("invalid -crosscheck entry %q", part)
			}
			ns = append(ns, n)
		}
		rep, err := core.VerifyContext(ctx, p, core.Options{CrossCheckN: ns})
		if err != nil && !runctl.IsStop(err) {
			return 0, err
		}
		fmt.Print(rep.Summary())
		if err != nil {
			fmt.Fprintf(os.Stderr, "ccsim: stopped early: %v\n", err)
			return 3, nil
		}
		if !rep.OK() {
			return 2, nil
		}
		return 0, nil
	}

	var w trace.Workload
	switch workload {
	case "uniform":
		w, err = trace.NewUniform(seed, caches, blocks, pwrite, 0.02)
	case "hot-block":
		w, err = trace.NewHotBlock(seed, caches, blocks, pwrite, 0.5)
	case "migratory":
		w, err = trace.NewMigratory(seed, caches, blocks, 4)
	case "producer-consumer":
		w, err = trace.NewProducerConsumer(seed, caches, blocks, 4)
	default:
		return 0, fmt.Errorf("unknown workload %q", workload)
	}
	if err != nil {
		return 0, err
	}

	m, err := sim.New(sim.Config{Protocol: p, Caches: caches, Blocks: blocks, Capacity: capacity})
	if err != nil {
		return 0, err
	}
	st, err := m.RunContext(ctx, w, ops)
	stopped := err != nil && runctl.IsStop(err)
	if err != nil && !stopped {
		return 0, err
	}

	fmt.Printf("protocol %s, %d caches, %d blocks (capacity %d), workload %s, %d references\n\n",
		p.Name, caches, blocks, capacity, w.Name(), ops)
	printStats(st)

	var stopReason error
	if stopped {
		stopReason = err
	}
	return verdict(st, m.CheckInvariants(), stopReason), nil
}

// printStats renders the coherence-traffic table.
func printStats(st sim.Stats) {
	t := report.NewTable("metric", "value")
	t.AddRow("reads / writes / replacements", fmt.Sprintf("%d / %d / %d", st.Reads, st.Writes, st.Replacements))
	t.AddRow("read hits / misses", fmt.Sprintf("%d / %d", st.ReadHits, st.ReadMisses))
	t.AddRow("write hits / misses", fmt.Sprintf("%d / %d", st.WriteHits, st.WriteMisses))
	t.AddRow("miss ratio", fmt.Sprintf("%.4f", st.MissRatio()))
	t.AddRow("invalidations", st.Invalidations)
	t.AddRow("broadcast updates", st.Updates)
	t.AddRow("cache-to-cache supplies", st.CacheSupplies)
	t.AddRow("memory supplies", st.MemorySupplies)
	t.AddRow("write-backs", st.WriteBacks)
	t.AddRow("bus transactions", st.BusTransactions)
	t.AddRow("capacity evictions", st.CapacityEvictions)
	t.AddRow("STALE READS", st.StaleReads)
	fmt.Print(t.String())
}

// verdict classifies a finished run into the process exit code.
func verdict(st sim.Stats, violations []fsm.Violation, stopReason error) int {
	if len(violations) > 0 {
		fmt.Println("\nfinal-state invariant violations:")
		for _, x := range violations {
			fmt.Println("  -", x.Error())
		}
		return runctl.ExitViolation
	}
	if st.StaleReads > 0 {
		return runctl.ExitViolation
	}
	if stopReason != nil {
		fmt.Fprintf(os.Stderr, "ccsim: stopped early: %v\n", stopReason)
		return runctl.ExitStopped
	}
	fmt.Println("\ncoherent: no stale read observed, final state permissible")
	return runctl.ExitClean
}
