package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/compile"
	"repro/internal/enum"
	"repro/internal/fsm"
	"repro/internal/obs"
	"repro/internal/protocols"
	"repro/internal/runctl"
	"repro/internal/stateset"
	"repro/internal/symbolic"
)

// Engines of the state-space jobs.
const (
	engStrict   = "enum-strict"
	engCounting = "enum-counting"
	engSymbolic = "symbolic"
)

// ssJob is one state-space job; every job runs through both the sequential
// and the parallel driver. The sizes put about half of a pass in each
// engine on a 2-core host.
type ssJob struct {
	engine   string
	protocol string
	n        int // caches (enumeration) or levels (Synthetic)
}

var ssJobs = []ssJob{
	{engStrict, "dragon", 9},
	{engStrict, "mesif", 8},
	// n > 31 takes the string-key fallback of the counting mode.
	{engCounting, "dragon", 48},
	{engSymbolic, "synthetic", 16},
	{engSymbolic, "synthetic", 20},
	{engSymbolic, "synthetic", 24},
}

func (j ssJob) name() string { return fmt.Sprintf("%s/%s/%d", j.engine, j.protocol, j.n) }

// ssEnv holds the validated protocols of every job.
type ssEnv struct {
	protos []*fsm.Protocol
}

func setupStateSpace() (*ssEnv, error) {
	env := &ssEnv{}
	for _, j := range ssJobs {
		var p *fsm.Protocol
		var err error
		if j.engine == engSymbolic {
			p, err = protocols.Synthetic(j.n)
		} else {
			p, err = protocols.ByName(j.protocol)
		}
		if err == nil {
			err = p.Validate()
		}
		if err == nil {
			_, err = compile.Compile(p)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", j.name(), err)
		}
		env.protos = append(env.protos, p)
	}
	return env, nil
}

// ssRunStats is what one traced engine run reports through its observer.
type ssRunStats struct {
	levels      []float64 // seconds per level (enum) or worklist item (symbolic)
	last        obs.LevelStats
	specJobs    int64
	specDiscard int64
}

// ssSample is one engine run.
type ssSample struct {
	job      int
	parallel bool
	wall     time.Duration
	unique   int
	visits   int
	ok       bool
	stats    *ssRunStats
}

// runJob runs job j through one driver; rec, when non-nil, records the run
// and its levels as spans.
func (env *ssEnv) runJob(j int, parallel bool, rec *recorder, req string) (ssSample, error) {
	job, p := ssJobs[j], env.protos[j]
	s := ssSample{job: j, parallel: parallel}
	var rc runctl.RunConfig
	layer, step := "enum", "enum.level"
	if job.engine == engSymbolic {
		layer, step = "symbolic", "symbolic.item"
	}
	root := rec.begin(layer+".run", req, 0)
	if rec != nil {
		st := &ssRunStats{}
		s.stats = st
		prev := time.Now()
		rc.Observer = obs.Funcs{
			Level: func(ls obs.LevelStats) {
				now := time.Now()
				st.levels = append(st.levels, now.Sub(prev).Seconds())
				rec.add(step, req, root.id(), prev, now)
				prev = now
				st.last = ls
			},
			Event: func(name string, delta int64) {
				switch name {
				case "speculation_jobs_total":
					st.specJobs += delta
				case "speculation_discarded_total":
					st.specDiscard += delta
				}
			},
		}
	}
	start := time.Now()
	var err error
	switch job.engine {
	case engSymbolic:
		var res *symbolic.Result
		opts := symbolic.Options{RunConfig: rc}
		if parallel {
			res, err = symbolic.ExpandParallel(p, opts, workers)
		} else {
			res, err = symbolic.Expand(p, opts)
		}
		if err == nil {
			s.unique, s.visits, s.ok = len(res.Essential), res.Visits, res.OK() && !res.Truncated
		}
	default:
		var res *enum.Result
		opts := enum.Options{RunConfig: rc}
		switch {
		case job.engine == engCounting && parallel:
			res, err = enum.CountingParallel(p, job.n, opts, workers)
		case job.engine == engCounting:
			res, err = enum.Counting(p, job.n, opts)
		case parallel:
			res, err = enum.ExhaustiveParallel(p, job.n, opts, workers)
		default:
			res, err = enum.Exhaustive(p, job.n, opts)
		}
		if err == nil {
			s.unique, s.visits, s.ok = res.Unique, res.Visits, res.OK() && !res.Truncated
		}
	}
	s.wall = time.Since(start)
	root.finish()
	return s, err
}

// check compares a run with the committed answer; the sequential and the
// parallel driver must both return it.
func checkStateSpace(o *outcome, s ssSample) {
	name := ssJobs[s.job].name()
	want, ok := known.StateSpace[name]
	if !ok {
		o.failf("%s: no committed answer", name)
		return
	}
	got := engineAnswer{Unique: s.unique, Visits: s.visits, OK: s.ok}
	if got != want {
		o.failf("%s (parallel=%t): got %+v, want %+v", name, s.parallel, got, want)
	}
}

// measure runs passes over every (job, driver) pair in a seed-shuffled
// order: a = enumeration (distinct states), b = symbolic (visits),
// base = sequential driver, alt = parallel driver.
func (env *ssEnv) measure(o *outcome, seconds float64, rng *rand.Rand, rec *recorder, afterPass func() error) (cells [4]*gridRate, samples []ssSample, passes int, err error) {
	for i := range cells {
		cells[i] = newGridRate()
	}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for passes < 1 || time.Now().Before(deadline) {
		for _, k := range rng.Perm(2 * len(ssJobs)) {
			j, parallel := k/2, k%2 == 1
			o.attempted++
			s, err := env.runJob(j, parallel, rec, fmt.Sprintf("p%d/%s/par=%t", passes, ssJobs[j].name(), parallel))
			if err != nil {
				o.failed++
				return cells, samples, passes, fmt.Errorf("%s: %w", ssJobs[j].name(), err)
			}
			checkStateSpace(o, s)
			cell := 0
			units := s.unique
			if ssJobs[j].engine == engSymbolic {
				cell, units = 2, s.visits
			}
			if parallel {
				cell++
			}
			cells[cell].add(ssJobs[j].name(), float64(units), s.wall.Seconds())
			samples = append(samples, s)
		}
		passes++
		if err := afterPass(); err != nil {
			return cells, samples, passes, err
		}
	}
	return cells, samples, passes, nil
}

func runStateSpace(cfg config, o *outcome) error {
	st := &setupTimer[*ssEnv]{setup: setupStateSpace, release: func(*ssEnv) {}}
	env, err := st.once()
	if err != nil {
		return err
	}
	if cfg.trace {
		if _, err := st.seconds(); err != nil {
			return err
		}
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	seconds := cfg.seconds
	if cfg.trace {
		seconds /= 2
	}
	rt := startRuntimeDelta()
	cells, _, passes, err := env.measure(o, seconds, rng, nil, st.again)
	if err != nil {
		return err
	}
	setup, err := st.seconds()
	if err != nil {
		return err
	}
	o.endToEnd["setup_s"] = metric{setup, "s"}
	setGrid(o, cells)
	o.info["enum_states_per_s"] = metric{cells[0].rate(), "1/s"}
	o.info["enum_par_states_per_s"] = metric{cells[1].rate(), "1/s"}
	o.info["symbolic_visits_per_s"] = metric{cells[2].rate(), "1/s"}
	o.info["symbolic_par_visits_per_s"] = metric{cells[3].rate(), "1/s"}
	o.info["passes"] = metric{float64(passes), "count"}
	if !cfg.trace {
		return nil
	}
	rt.report(o, passes)

	rec := newRecorder()
	tcells, samples, tpasses, err := env.measure(o, seconds, rng, rec, st.again)
	if err != nil {
		return err
	}
	traceOverhead(o, cells, tcells)
	if err := env.layers(o, rec, tcells, samples, tpasses); err != nil {
		return err
	}
	return finishTrace(rec, cfg, o)
}

// layers derives the enum, stateset, symbolic and compile metrics from the
// traced passes and from probes fed with the run's own states.
func (env *ssEnv) layers(o *outcome, rec *recorder, cells [4]*gridRate, samples []ssSample, passes int) error {
	var enumLevels, itemTimes []float64
	var levels, unique, visits, pruned int
	var symVisits, symEssential, symContained, symSuperseded int
	var specJobs, specDiscard int64
	for _, s := range samples {
		st := s.stats
		if ssJobs[s.job].engine == engSymbolic {
			if s.parallel {
				specJobs += st.specJobs
				specDiscard += st.specDiscard
				continue
			}
			itemTimes = append(itemTimes, st.levels...)
			symVisits += s.visits
			symEssential += s.unique
			symContained += st.last.Pruned
			symSuperseded += st.last.Superseded
			continue
		}
		if s.parallel {
			continue
		}
		enumLevels = append(enumLevels, st.levels...)
		levels += st.last.Level
		unique += s.unique
		visits += s.visits
		pruned += st.last.Pruned
	}
	perPass := func(v int) float64 { return float64(v) / float64(max(passes, 1)) }
	o.layers["enum.level_s"] = metric{median(enumLevels), "s"}
	o.layers["enum.levels"] = metric{perPass(levels), "count"}
	o.layers["enum.unique"] = metric{perPass(unique), "count"}
	o.layers["enum.visits"] = metric{perPass(visits), "count"}
	o.layers["enum.dup_ratio"] = metric{float64(pruned) / float64(max(visits, 1)), "ratio"}
	o.layers["enum.par_speedup"] = metric{cells[0].totalWall() / cells[1].totalWall(), "ratio"}
	o.layers["symbolic.expand_s"] = metric{cells[2].totalWall(), "s"}
	o.layers["symbolic.item_s"] = metric{median(itemTimes), "s"}
	o.layers["symbolic.visits"] = metric{perPass(symVisits), "count"}
	o.layers["symbolic.essential"] = metric{perPass(symEssential), "count"}
	o.layers["symbolic.pruned_ratio"] = metric{float64(symContained) / float64(max(symVisits, 1)), "ratio"}
	o.layers["symbolic.superseded"] = metric{perPass(symSuperseded), "count"}
	o.layers["symbolic.spec_discarded_ratio"] = metric{float64(specDiscard) / float64(max(specJobs, 1)), "ratio"}

	o.layers["compile.compile_s"] = metric{compileProbe(rec, env.protos), "s"}
	// Probes: reachable configurations of the first strict job, and the
	// essential states of the last symbolic job.
	if err := env.enumProbes(o, rec); err != nil {
		return err
	}
	return env.symbolicProbes(o, rec)
}

// probeNS times f over reps repetitions of ops operations and returns the
// median nanoseconds per operation.
func probeNS(rec *recorder, name string, ops int, f func()) float64 {
	const reps = 5
	var per []float64
	for r := 0; r < reps; r++ {
		sp := rec.begin(name, "probe", 0)
		start := time.Now()
		f()
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(max(ops, 1)))
		sp.finish()
	}
	return median(per)
}

func (env *ssEnv) enumProbes(o *outcome, rec *recorder) error {
	j := 0 // the first strict enumeration job
	job, p := ssJobs[j], env.protos[j]
	res, err := enum.Exhaustive(p, job.n, enum.Options{KeepReachable: true})
	if err != nil {
		return err
	}
	configs := res.Reachable
	o.layers["enum.canonical_key_ns"] = metric{probeNS(rec, "enum.canonical_key", len(configs), func() {
		for _, c := range configs {
			if _, err := enum.CanonicalKey(c, enum.ModeStrict); err != nil {
				panic(err) // every reachable configuration has a key
			}
		}
	}), "ns"}

	// compile.Protocol.Step: every (cache, operation) from every
	// reachable configuration.
	cp, err := compile.Compile(p)
	if err != nil {
		return err
	}
	ccs := make([]*compile.Config, len(configs))
	for i, c := range configs {
		ccs[i] = cp.NewConfig(job.n)
		if err := cp.Encode(c, ccs[i]); err != nil {
			return err
		}
	}
	scratch := cp.NewConfig(job.n)
	steps := len(ccs) * job.n * cp.NumOps
	o.layers["compile.step_ns"] = metric{probeNS(rec, "compile.step", steps, func() {
		for _, c := range ccs {
			for origin := 0; origin < job.n; origin++ {
				for op := 0; op < cp.NumOps; op++ {
					scratch.CopyFrom(c)
					cp.Step(scratch, origin, op)
				}
			}
		}
	}), "ns"}

	// stateset: the configurations packed like the engine's keys, one byte
	// per cache (state index and data class) plus the memory's class.
	keys := make([][]byte, len(ccs))
	for i, c := range ccs {
		k := make([]byte, job.n+1)
		for q, s := range c.States {
			k[q] = byte(s)<<2 | dataClass(c.Versions[q], c.Latest)
		}
		k[job.n] = 0x80 | dataClass(c.MemVersion, c.Latest)
		keys[i] = k
	}
	var set *stateset.Set
	o.layers["stateset.insert_ns"] = metric{probeNS(rec, "stateset.insert", len(keys), func() {
		set = stateset.New(job.n + 1)
		for _, k := range keys {
			if !set.Has(k) {
				set.Insert(k)
			}
		}
	}), "ns"}
	o.layers["stateset.has_ns"] = metric{probeNS(rec, "stateset.has", len(keys), func() {
		for _, k := range keys {
			if !set.Has(k) {
				panic("stateset lost an inserted key")
			}
		}
	}), "ns"}
	o.layers["stateset.bytes_per_state"] = metric{float64(set.Bytes()) / float64(max(set.Len(), 1)), "B"}
	return nil
}

// compileProbe returns the median time to compile every protocol once.
func compileProbe(rec *recorder, protos []*fsm.Protocol) float64 {
	return probeNS(rec, "compile.compile", 1, func() {
		for _, p := range protos {
			if _, err := compile.Compile(p); err != nil {
				panic(err) // set-up compiled these protocols already
			}
		}
	}) / 1e9
}

// dataClass is a copy's freshness class: no data, latest, or obsolete.
func dataClass(v, latest int64) byte {
	switch {
	case v == fsm.NoData:
		return 0
	case v == latest:
		return 1
	default:
		return 2
	}
}

func (env *ssEnv) symbolicProbes(o *outcome, rec *recorder) error {
	j := len(ssJobs) - 1 // the largest symbolic job
	eng, err := symbolic.NewEngine(env.protos[j])
	if err != nil {
		return err
	}
	res := eng.Expand(symbolic.Options{})
	states := res.Essential
	o.layers["symbolic.successors_ns"] = metric{probeNS(rec, "symbolic.successors", len(states), func() {
		for _, s := range states {
			eng.Successors(s)
		}
	}), "ns"}
	o.layers["symbolic.check_ns"] = metric{probeNS(rec, "symbolic.check", len(states), func() {
		for _, s := range states {
			eng.Check(s, false)
		}
	}), "ns"}
	o.layers["symbolic.contains_ns"] = metric{probeNS(rec, "symbolic.contains", len(states)*len(states), func() {
		for _, a := range states {
			for _, b := range states {
				symbolic.Contains(a, b)
			}
		}
	}), "ns"}
	return nil
}
