// Simulate: run the seven protocols on a concrete bus-based multiprocessor
// over the canonical sharing patterns (uniform, hot block, migratory,
// producer-consumer), checking every load for staleness, and contrast their
// bus traffic — invalidation protocols ping-pong on producer-consumer
// sharing, write-broadcast protocols (Firefly, Dragon) trade invalidations
// for update traffic. Afterwards, cross-validate the simulator against the
// symbolic verifier: every concrete reachable state must be covered by an
// essential composite state (the executable Theorem 1).
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/experiments"
	"repro/internal/report"
)

func main() {
	const (
		caches = 8
		blocks = 16
		ops    = 200000
		seed   = 1993
	)
	rows, err := experiments.Workloads(context.Background(), caches, blocks, ops, seed)
	if err != nil {
		log.Fatal(err)
	}

	t := report.NewTable("protocol", "workload", "miss ratio", "invalidations",
		"updates", "cache-to-cache", "bus txns", "stale reads")
	for _, r := range rows {
		t.AddRow(r.Protocol, r.Workload, fmt.Sprintf("%.4f", r.Stats.MissRatio()),
			r.Stats.Invalidations, r.Stats.Updates, r.Stats.CacheSupplies,
			r.Stats.BusTransactions, r.Stats.StaleReads)
	}
	fmt.Printf("simulated %d references per cell (%d caches, %d blocks)\n\n", ops, caches, blocks)
	fmt.Print(t.String())

	for _, r := range rows {
		if r.Stats.StaleReads != 0 {
			log.Fatalf("%s/%s returned stale data", r.Protocol, r.Workload)
		}
	}
	fmt.Println("\nno stale read across any protocol or workload")

	fmt.Println("\ncross-validating concrete reachability against essential states (Theorem 1):")
	for _, p := range repro.Protocols() {
		rep, err := repro.Verify(p, repro.VerifyOptions{CrossCheckN: []int{2, 3, 4, 5}})
		if err != nil {
			log.Fatal(err)
		}
		for i := range rep.CrossChecks {
			cc := &rep.CrossChecks[i]
			if !cc.OK() {
				log.Fatalf("%s n=%d: %d uncovered states", p.Name, cc.N, len(cc.Uncovered))
			}
		}
		fmt.Printf("  %-12s covered for n=2..5 (%d essential states)\n",
			p.Name, len(rep.Symbolic.Essential))
	}
}
