package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/protocols"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/trace"
)

// FalseSharingRow is one cell of the block-size experiment: a protocol run
// under the false-sharing workload with a given coherence block size.
type FalseSharingRow struct {
	Protocol      string
	WordsPerBlock int
	Stats         sim.Stats
}

// FalseSharingSweep runs the false-sharing workload (processors touching
// only their own word) across block sizes. Archibald & Baer's block-size
// observation falls out: with one word per block there is no coherence
// traffic at all, and every doubling of the block size multiplies the
// invalidation (or update) traffic although the program's true sharing is
// unchanged. Canceling ctx stops the current simulation with an error
// matching runctl.ErrCanceled or ErrDeadline.
func FalseSharingSweep(ctx context.Context, names []string, caches, groups, ops int, seed int64, blockSizes []int) ([]FalseSharingRow, error) {
	var rows []FalseSharingRow
	for _, name := range names {
		p, err := protocols.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, wpb := range blockSizes {
			fs, err := trace.NewFalseSharing(seed, caches, groups, 0.5)
			if err != nil {
				return nil, err
			}
			w, err := trace.NewBlockMapper(fs, wpb)
			if err != nil {
				return nil, err
			}
			blocks := (fs.Words() + wpb - 1) / wpb
			m, err := sim.New(sim.Config{Protocol: p, Caches: caches, Blocks: blocks, Capacity: blocks})
			if err != nil {
				return nil, err
			}
			st, err := m.Run(ctx, w, ops)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s wpb=%d: %w", name, wpb, err)
			}
			if st.StaleReads != 0 {
				return nil, fmt.Errorf("experiments: %s wpb=%d: stale reads under false sharing", name, wpb)
			}
			rows = append(rows, FalseSharingRow{Protocol: p.Name, WordsPerBlock: wpb, Stats: st})
		}
	}
	return rows, nil
}

// RenderFalseSharing prints the block-size sweep.
func RenderFalseSharing(ctx context.Context, w io.Writer, caches, groups, ops int, seed int64) error {
	rows, err := FalseSharingSweep(ctx,
		[]string{"illinois", "firefly", "dragon"},
		caches, groups, ops, seed, []int{1, 2, 4, 8})
	if err != nil {
		return err
	}
	t := report.NewTable("protocol", "words/block", "miss ratio", "invalidations",
		"updates", "bus txns")
	for _, r := range rows {
		t.AddRow(r.Protocol, r.WordsPerBlock, fmt.Sprintf("%.4f", r.Stats.MissRatio()),
			r.Stats.Invalidations, r.Stats.Updates, r.Stats.BusTransactions)
	}
	fmt.Fprint(w, report.Section(
		"Extension — false sharing vs coherence block size", t.String()))
	return nil
}
