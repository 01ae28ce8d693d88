// Command ccexperiments regenerates the figures and tables of Pong & Dubois
// (SPAA 1993); see DESIGN.md for the experiment index.
//
// Usage:
//
//	ccexperiments                 # run everything
//	ccexperiments -exp fig4       # one experiment:
//	                              # fig1 fig4 fig4table a2 complexity suite
//	                              # mutants workloads
//	ccexperiments -timeout 2m     # stop cleanly when the limit expires
//
// The sweep stops cleanly on SIGINT/SIGTERM or when -timeout expires: the
// simulator experiments (workloads, falsesharing) stop inside their current
// run, any other experiment finishes, remaining ones are skipped, and the
// process exits with code 3.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/runctl"
)

var allExperiments = []struct {
	name string
	desc string
	run  func(context.Context) error
}{
	{"fig1", "E1: Illinois per-cache transition diagram (Figure 1)", runFig1},
	{"fig4", "E4: Illinois global transition diagram (Figure 4)", runFig4},
	{"fig4table", "E5: context-variable table of Figure 4", runFig4Table},
	{"a2", "E6: Illinois expansion steps (Appendix A.2)", runA2},
	{"complexity", "E7: state-space growth, enumeration vs symbolic (Section 3.1)", runComplexity},
	{"suite", "E8: verification of the Archibald & Baer protocol suite", runSuite},
	{"mutants", "E9: erroneous-state detection on fault-injected protocols", runMutants},
	{"scaling", "E11: symbolic cost vs number of per-cache states (synthetic family)", runScaling},
	{"workloads", "extension: simulated bus traffic across sharing patterns", runWorkloads},
	{"falsesharing", "extension: false sharing vs coherence block size", runFalseSharing},
}

func main() {
	var (
		exp         = flag.String("exp", "all", "experiment to run (all, fig1, fig4, fig4table, a2, complexity, suite, mutants, workloads)")
		timeout     = flag.Duration("timeout", 0, "wall-clock limit for the sweep, checked between experiments and inside the simulator runs (0: none)")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile  = flag.String("memprofile", "", "write an allocation profile to this file on exit")
		showVersion = flag.Bool("version", false, "print version information and exit")
	)
	runctl.ParseFlags(flag.CommandLine, os.Args[1:])

	if *showVersion {
		fmt.Println(runctl.VersionString("ccexperiments"))
		os.Exit(runctl.ExitClean)
	}

	stopProf, err := runctl.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccexperiments:", err)
		os.Exit(1)
	}
	// os.Exit skips deferred calls, so every exit path flushes the profiles
	// explicitly first.
	exit := func(code int) {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "ccexperiments:", err)
			if code == 0 {
				code = 1
			}
		}
		os.Exit(code)
	}

	ctx, stop := runctl.WithSignals(context.Background(), *timeout)
	defer stop()

	ran := false
	for _, e := range allExperiments {
		if *exp != "all" && *exp != e.name {
			continue
		}
		if err := runctl.FromContext(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "ccexperiments: stopped before %s: %v\n", e.name, err)
			exit(runctl.ExitStopped)
		}
		ran = true
		if err := e.run(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "ccexperiments: %s: %v\n", e.name, err)
			exit(runctl.ExitCode(err))
		}
		fmt.Println()
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "ccexperiments: unknown experiment %q; have:\n", *exp)
		for _, e := range allExperiments {
			fmt.Fprintf(os.Stderr, "  %-10s %s\n", e.name, e.desc)
		}
		exit(runctl.ExitUsage)
	}
	exit(runctl.ExitClean)
}
