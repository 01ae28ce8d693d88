package main

import (
	"context"
	"os"

	"repro/internal/experiments"
)

// The verification experiments ignore ctx, so a stop waits for the one
// running; the simulator experiments stop inside their current run.

func runFig1(context.Context) error { return experiments.RenderFig1(os.Stdout) }

func runFig4(context.Context) error { return experiments.RenderFig4(os.Stdout) }

func runFig4Table(context.Context) error { return experiments.RenderFig4Table(os.Stdout) }

func runA2(context.Context) error { return experiments.RenderA2(os.Stdout) }

func runComplexity(context.Context) error {
	return experiments.RenderComplexity(os.Stdout,
		[]string{"illinois", "dragon"}, []int{2, 3, 4, 5, 6, 7, 8})
}

func runSuite(context.Context) error { return experiments.RenderSuite(os.Stdout) }

func runMutants(context.Context) error { return experiments.RenderMutants(os.Stdout) }

func runScaling(context.Context) error {
	return experiments.RenderScaling(os.Stdout, []int{1, 2, 3, 4, 6, 8, 12, 16}, 4)
}

func runWorkloads(ctx context.Context) error {
	return experiments.RenderWorkloads(ctx, os.Stdout, 8, 16, 200000, 1993)
}

func runFalseSharing(ctx context.Context) error {
	return experiments.RenderFalseSharing(ctx, os.Stdout, 8, 8, 200000, 1993)
}
