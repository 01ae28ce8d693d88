package enum

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/ckptio"
	"repro/internal/fsm"
	"repro/internal/stateset"
)

// Out-of-core enumeration. When RunConfig.SpillDir is set together with
// a memory budget, the parallel engine watches the estimated resident
// footprint at every level boundary and, as it approaches the budget,
// spills the entire resident visited and tuple sets to CRC-checked
// files instead of stopping with ErrMemBudget. Spilled entries keep
// their admission ranks, and the reconcile step filters each level's
// pending successors against the spill files (delayed duplicate
// detection, one file resident at a time), so the run's admissions —
// and therefore its Result — stay bit-identical to an in-memory run.
//
// Only the parallel engine spills: it already batches dedup at level
// boundaries, which is what makes one sequential pass per spill file
// affordable. Run therefore selects the parallel driver whenever
// SpillDir is set, with one worker if Workers asks for no more. Spilling
// requires the packed key codec (the compact store); runs the codec
// cannot pack fall back to in-memory maps and the plain memory budget.

// spillState tracks one run's spill files.
type spillState struct {
	dir string
	// threshold is the estimated-bytes level at which the run spills:
	// 3/4 of Budget.MaxBytes, leaving headroom for the level in flight.
	threshold int64
	// visitedFiles and tupleFiles list the spill files written so far.
	// They advance independently (a spill event with no new tuples
	// writes no tuple file).
	visitedFiles []string
	tupleFiles   []string
	seq          int
}

// initSpill arms out-of-core mode for a parallel run when configured
// and supported; it verifies the directory is writable up front so
// misconfiguration fails the run at level 0, not mid-exploration.
func (b *bfs) initSpill(frontier []*fsm.Config) error {
	if b.opts.SpillDir == "" || b.opts.Budget.MaxBytes <= 0 {
		return nil
	}
	if _, ok := b.visited.(*compactStore); !ok {
		return nil
	}
	if err := os.MkdirAll(b.opts.SpillDir, 0o755); err != nil {
		return fmt.Errorf("enum: creating spill directory: %w", err)
	}
	if err := ckptio.PreflightDir(b.opts.SpillDir); err != nil {
		return fmt.Errorf("enum: spill directory: %w", err)
	}
	// A budgeted run that failed or was killed leaves its spill files
	// behind; they are garbage by construction (checkpoints are
	// self-contained, so a resume never reads an earlier run's files) and
	// would otherwise accumulate forever in a long-lived spill directory.
	// Sweep them before the first write, mirroring the disk cache tier's
	// startup retention pass. A spill directory belongs to one run at a
	// time — concurrent runs must use distinct directories, as the
	// sequential file numbering would collide regardless of this sweep.
	if swept, err := ckptio.SweepPrefix(b.opts.SpillDir, "spill-"); err != nil {
		return fmt.Errorf("enum: sweeping stale spill files: %w", err)
	} else if swept.Removed > 0 {
		b.orun.Event("spill_stale_swept_total", int64(swept.Removed))
		b.orun.Event("spill_stale_swept_bytes_total", swept.FreedBytes)
	}
	b.spill = &spillState{
		dir:       b.opts.SpillDir,
		threshold: b.opts.Budget.MaxBytes - b.opts.Budget.MaxBytes/4,
	}
	// Rank lookups for provenance cannot read spilled entries, so the
	// current frontier's ranks are pinned in memory across levels (the
	// only parents a level references are its own frontier).
	b.frontRanks = make(map[Key]uint32, len(frontier))
	for _, c := range frontier {
		k := b.kc.key(c)
		if r, ok := b.visited.rank(k); ok {
			b.frontRanks[k] = r
		}
	}
	return nil
}

// maybeSpill spills the resident sets when the footprint estimate has
// crossed the threshold. Called at level boundaries before the budget
// check, so a run that can spill never trips ErrMemBudget on visited
// bytes. A failed write rolls the entries back into memory and returns
// the error (the run then stops on the memory budget instead of
// continuing with silently wrong dedup).
func (b *bfs) maybeSpill() error {
	sp := b.spill
	if sp == nil || b.estBytes() <= sp.threshold || b.visited.resident() == 0 {
		return nil
	}
	freed := b.visited.bytes() + b.tuples.bytes()
	if vb := b.visited.spill(); vb != nil {
		path := filepath.Join(sp.dir, fmt.Sprintf("spill-visited-%04d.bin", sp.seq))
		if err := (&ckptio.Store{Path: path, Keep: 1}).Save(vb); err != nil {
			if rerr := b.visited.restore(vb); rerr != nil {
				return fmt.Errorf("enum: spill write failed (%v) and rollback failed: %w", err, rerr)
			}
			return fmt.Errorf("enum: writing spill file: %w", err)
		}
		sp.visitedFiles = append(sp.visitedFiles, path)
	}
	if tb := b.tuples.spill(); tb != nil {
		path := filepath.Join(sp.dir, fmt.Sprintf("spill-tuples-%04d.bin", sp.seq))
		if err := (&ckptio.Store{Path: path, Keep: 1}).Save(tb); err != nil {
			if rerr := b.tuples.restore(tb); rerr != nil {
				return fmt.Errorf("enum: tuple spill write failed (%v) and rollback failed: %w", err, rerr)
			}
			return fmt.Errorf("enum: writing tuple spill file: %w", err)
		}
		sp.tupleFiles = append(sp.tupleFiles, path)
	}
	sp.seq++
	freed -= b.visited.bytes() + b.tuples.bytes()
	b.orun.Event("spill_files_total", 1)
	b.orun.Event("spilled_bytes_total", freed)
	return nil
}

// loadSpillBlob reads one spill file back through the CRC envelope.
func loadSpillBlob(path string) (*stateset.BlobReader, error) {
	data, _, err := (&ckptio.Store{Path: path, Keep: 1}).Load()
	if err != nil {
		return nil, fmt.Errorf("enum: reading spill file %s: %w", filepath.Base(path), err)
	}
	br, err := stateset.NewBlobReader(data)
	if err != nil {
		return nil, fmt.Errorf("enum: spill file %s: %w", filepath.Base(path), err)
	}
	return br, nil
}

// spillFilter performs the delayed duplicate detection of out-of-core
// BFS: it drops pending admissions whose key lives in a spill file and
// marks entries whose state tuple is already in the spilled tuple
// census. One file is resident at a time, so the transient memory is
// bounded by the largest single spill. The surviving entries, still in
// rank order, are exactly the set an in-memory run would admit.
func (b *bfs) spillFilter(entries []*pendEntry) ([]*pendEntry, error) {
	sp := b.spill
	if sp == nil || (len(sp.visitedFiles) == 0 && len(sp.tupleFiles) == 0) || len(entries) == 0 {
		return entries, nil
	}
	var buf [maxPackedCaches + 1]byte
	for _, path := range sp.visitedFiles {
		br, err := loadSpillBlob(path)
		if err != nil {
			return nil, err
		}
		for i, e := range entries {
			if e == nil {
				continue
			}
			if br.Has(packKeyBytes(e.it.key, b.n, buf[:])) {
				releaseConfig(e.it.cfg)
				entries[i] = nil
			}
		}
	}
	if len(sp.tupleFiles) > 0 {
		// Tuple keys of the survivors, aligned with entries.
		tks := make([]Key, len(entries))
		for i, e := range entries {
			if e != nil {
				tks[i] = b.kc.tupleKey(e.it.cfg)
			}
		}
		for _, path := range sp.tupleFiles {
			br, err := loadSpillBlob(path)
			if err != nil {
				return nil, err
			}
			for i, e := range entries {
				if e == nil || e.it.tupleDup {
					continue
				}
				if br.Has(packKeyBytes(tks[i], b.n, buf[:])) {
					e.it.tupleDup = true
				}
			}
		}
	}
	out := entries[:0]
	for _, e := range entries {
		if e != nil {
			out = append(out, e)
		}
	}
	return out, nil
}

// forEachSpilled streams every entry of the given spill files through f
// with its admission rank, loading one file at a time. Checkpoint
// snapshots and witness reconstruction use it to cover spilled states.
func (b *bfs) forEachSpilled(files []string, f func(k Key, rank uint32)) error {
	for _, path := range files {
		br, err := loadSpillBlob(path)
		if err != nil {
			return err
		}
		br.ForEach(func(kb []byte, r uint32) { f(unpackKeyBytes(kb, b.n), r) })
	}
	return nil
}
