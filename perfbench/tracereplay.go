package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/compile"
	"repro/internal/fsm"
	"repro/internal/protocols"
	"repro/internal/replay"
	"repro/internal/trace"
)

// Trace shape: 8 caches sharing 64 blocks, 16 blocks resident per cache,
// so both traces also exercise capacity evictions.
const (
	trCaches   = 8
	trBlocks   = 64
	trCapacity = 16
	trRefs     = 200_000
)

// trOpts are the replay options of every replay and compare.
var trOpts = replay.Options{Capacity: trCapacity}

// trCompare are the protocols of the fan-out compare; trSingle is the one
// the single-lane replays use.
var (
	trCompare = []string{"msi", "mesi", "moesi", "dragon"}
	trSingle  = "mesi"
)

// trTrace is one materialized trace.
type trTrace struct {
	name string
	data []byte
	refs int64
}

// trEnv holds the seed's traces and the compare protocols.
type trEnv struct {
	traces [2]trTrace // a = write-heavy migratory, b = read-mostly hot-block
	protos []*fsm.Protocol
	single *fsm.Protocol
	// want is each trace's single-lane result per protocol, the reference
	// every timed replay and compare lane must reproduce.
	want [2]map[string]*replay.Result
}

func materialize(seed int64) ([2]trTrace, error) {
	specs := [2]replay.WorkloadSpec{
		{Kind: replay.KindMigratory, Seed: seed, Caches: trCaches, Blocks: trBlocks, Ops: trRefs},
		{Kind: replay.KindHotBlock, Seed: seed, Caches: trCaches, Blocks: trBlocks, Ops: trRefs, PWrite: 0.05},
	}
	var out [2]trTrace
	for i, spec := range specs {
		var buf bytes.Buffer
		n, err := replay.Materialize(&buf, spec)
		if err != nil {
			return out, fmt.Errorf("materializing %s: %w", spec.Kind, err)
		}
		out[i] = trTrace{name: spec.Kind, data: buf.Bytes(), refs: n}
	}
	return out, nil
}

// replayOne replays trace t through p.
func (env *trEnv) replayOne(t int, p *fsm.Protocol) (*replay.Result, error) {
	return replay.Replay(context.Background(), bytes.NewReader(env.traces[t].data), p, trOpts)
}

// checkResult applies the gate to one protocol's replay of trace t.
func (env *trEnv) checkResult(o *outcome, t int, r *replay.Result) {
	tr := env.traces[t]
	if r.Truncated || r.Ops != tr.refs {
		o.failf("%s/%s: replayed %d of %d refs", tr.name, r.Protocol, r.Ops, tr.refs)
	}
	if r.Stats.StaleReads != known.StaleReads {
		o.failf("%s/%s: %d stale reads, want %d", tr.name, r.Protocol, r.Stats.StaleReads, known.StaleReads)
	}
	if len(r.Violations) != known.FinalViolations {
		o.failf("%s/%s: %d final-state violations, want %d", tr.name, r.Protocol, len(r.Violations), known.FinalViolations)
	}
	if want := env.want[t][r.Protocol]; want != nil && r.Stats != want.Stats {
		o.failf("%s/%s: stats %+v differ from the single-lane replay %+v", tr.name, r.Protocol, r.Stats, want.Stats)
	}
}

// measure runs passes over the four items in a seed-shuffled order:
// a = migratory, b = hot-block, base = one lane, alt = 4-protocol compare.
func (env *trEnv) measure(o *outcome, seconds float64, rng *rand.Rand, rec *recorder, afterPass func() error) (cells [4]*gridRate, passes int, err error) {
	for i := range cells {
		cells[i] = newGridRate()
	}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for passes < 1 || time.Now().Before(deadline) {
		for _, item := range rng.Perm(4) {
			t, compare := item/2, item%2 == 1
			key := fmt.Sprintf("%s/compare=%t", env.traces[t].name, compare)
			req := fmt.Sprintf("p%d/%s", passes, key)
			o.attempted++
			var results []*replay.Result
			start := time.Now()
			if compare {
				sp := rec.begin("replay.compare", req, 0)
				var cr *replay.CompareResult
				cr, err = replay.Compare(context.Background(), bytes.NewReader(env.traces[t].data), env.protos, trOpts)
				sp.finish()
				if cr != nil {
					results = cr.Results
				}
			} else {
				sp := rec.begin("replay.replay", req, 0)
				var r *replay.Result
				r, err = env.replayOne(t, env.single)
				sp.finish()
				results = []*replay.Result{r}
			}
			wall := time.Since(start)
			if err != nil {
				o.failed++
				return cells, passes, fmt.Errorf("%s: %w", req, err)
			}
			for _, r := range results {
				env.checkResult(o, t, r)
			}
			cells[item].add(key, float64(env.traces[t].refs), wall.Seconds())
		}
		passes++
		if err := afterPass(); err != nil {
			return cells, passes, err
		}
	}
	return cells, passes, nil
}

func runTraceReplay(cfg config, o *outcome) error {
	st := &setupTimer[[2]trTrace]{setup: func() ([2]trTrace, error) { return materialize(cfg.seed) }, release: func([2]trTrace) {}}
	traces, err := st.once()
	if err != nil {
		return err
	}
	if cfg.trace {
		if _, err := st.seconds(); err != nil {
			return err
		}
	}
	env := &trEnv{traces: traces}
	for _, name := range trCompare {
		p, err := protocols.ByName(name)
		if err != nil {
			return err
		}
		env.protos = append(env.protos, p)
		if name == trSingle {
			env.single = p
		}
	}
	// The single-lane reference for every (trace, protocol) pair; every
	// compare lane must match it.
	for t := range env.traces {
		env.want[t] = map[string]*replay.Result{}
		for _, p := range env.protos {
			r, err := env.replayOne(t, p)
			if err != nil {
				return err
			}
			env.checkResult(o, t, r)
			env.want[t][r.Protocol] = r
		}
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	seconds := cfg.seconds
	if cfg.trace {
		seconds /= 2
	}
	rt := startRuntimeDelta()
	cells, passes, err := env.measure(o, seconds, rng, nil, st.again)
	if err != nil {
		return err
	}
	setup, err := st.seconds()
	if err != nil {
		return err
	}
	o.endToEnd["setup_s"] = metric{setup, "s"}
	setGrid(o, cells)
	o.info["replay_write_refs_per_s"] = metric{cells[0].rate(), "1/s"}
	o.info["replay_read_refs_per_s"] = metric{cells[2].rate(), "1/s"}
	o.info["compare_refs_per_s"] = metric{cells[1].rate(), "1/s"}
	o.info["passes"] = metric{float64(passes), "count"}
	if !cfg.trace {
		return nil
	}
	rt.report(o, passes)

	rec := newRecorder()
	tcells, _, err := env.measure(o, seconds, rng, rec, st.again)
	if err != nil {
		return err
	}
	traceOverhead(o, cells, tcells)
	o.layers["replay.gen_s"] = metric{setup, "s"}
	if err := env.layers(o, rec); err != nil {
		return err
	}
	return finishTrace(rec, cfg, o)
}

// layers derives the replay, sim and compile metrics from probes over the
// migratory trace's own bytes and references.
func (env *trEnv) layers(o *outcome, rec *recorder) error {
	tr := env.traces[0]
	const reps = 3

	// Decode alone: the scanner over the trace bytes, no simulation.
	var decode []float64
	for r := 0; r < reps; r++ {
		sp := rec.begin("replay.decode", "probe", 0)
		start := time.Now()
		err := scanTrace(tr.data, func([]trace.Ref) {})
		decode = append(decode, time.Since(start).Seconds())
		sp.finish()
		if err != nil {
			return err
		}
	}
	decodeS := median(decode)
	o.layers["replay.decode_refs_per_s"] = metric{float64(tr.refs) / decodeS, "1/s"}

	// One lane per protocol: the slowest lane over the mean lane, and the
	// simulator's cost per reference net of decoding.
	var laneS []float64
	var singleS float64
	for _, p := range env.protos {
		var walls []float64
		for r := 0; r < reps; r++ {
			sp := rec.begin("replay.replay", "probe/"+p.Name, 0)
			start := time.Now()
			_, err := env.replayOne(0, p)
			walls = append(walls, time.Since(start).Seconds())
			sp.finish()
			if err != nil {
				return err
			}
		}
		laneS = append(laneS, median(walls))
		if p == env.single {
			singleS = laneS[len(laneS)-1]
		}
	}
	var sum, slowest float64
	for _, s := range laneS {
		sum += s
		slowest = max(slowest, s)
	}
	o.layers["replay.lane_skew"] = metric{slowest / (sum / float64(len(laneS))), "ratio"}
	o.layers["sim.ns_per_ref"] = metric{(singleS - decodeS) * 1e9 / float64(tr.refs), "ns"}

	o.layers["compile.compile_s"] = metric{compileProbe(rec, env.protos), "s"}
	st := env.want[0][env.single.Name].Stats
	o.layers["sim.miss_ratio"] = metric{st.MissRatio(), "ratio"}
	o.layers["sim.bus_transactions"] = metric{float64(st.BusTransactions), "count"}
	o.layers["sim.invalidations"] = metric{float64(st.Invalidations), "count"}
	o.layers["sim.capacity_evictions"] = metric{float64(st.CapacityEvictions), "count"}

	// compile.Protocol.Step over the trace's own reference stream, one
	// configuration per block (no capacity evictions).
	cp, err := compile.Compile(env.single)
	if err != nil {
		return err
	}
	var refs []trace.Ref
	if err := scanTrace(tr.data, func(b []trace.Ref) { refs = append(refs, b...) }); err != nil {
		return err
	}
	blocks := map[int]*compile.Config{}
	ops := make([]int, len(refs))
	for i, r := range refs {
		ops[i] = cp.OpIndex(r.Op)
		if blocks[r.Block] == nil {
			blocks[r.Block] = cp.NewConfig(trCaches)
		}
	}
	byBlock := make([]*compile.Config, len(refs))
	for i, r := range refs {
		byBlock[i] = blocks[r.Block]
	}
	o.layers["compile.step_ns"] = metric{probeNS(rec, "compile.step", len(refs), func() {
		for i, r := range refs {
			if ops[i] >= 0 {
				cp.Step(byBlock[i], r.Cache, ops[i])
			}
		}
	}), "ns"}
	return nil
}

// scanTrace decodes a whole trace batch by batch, handing each batch to
// use; the batch buffer is reused.
func scanTrace(data []byte, use func([]trace.Ref)) error {
	sc, err := replay.NewScanner(bytes.NewReader(data), replay.ScanOptions{})
	if err != nil {
		return err
	}
	buf := make([]trace.Ref, 4096)
	for {
		n, err := sc.NextBatch(buf)
		use(buf[:n])
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}
