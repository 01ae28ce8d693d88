package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/ccpsl"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/fsm"
	"repro/internal/mutate"
	"repro/internal/obs"
	"repro/internal/protocols"
	"repro/internal/serve"
)

// catalogJob is one entry of the 53-job catalog: a library protocol or one
// of its mutants, sent to the service as canonical ccpsl.
type catalogJob struct {
	name     string
	mutant   bool
	spec     string
	coldBody []byte
	hitBody  []byte
}

// buildCatalog lists the 12 library protocols and their 41 mutants, the
// same sweep POST /v1/verify/batch expands.
func buildCatalog() ([]catalogJob, error) {
	var jobs []catalogJob
	add := func(p *fsm.Protocol, mutant bool) error {
		j := catalogJob{name: p.Name, mutant: mutant, spec: ccpsl.Format(p)}
		var err error
		if j.coldBody, err = json.Marshal(serve.Request{Spec: j.spec, NoCache: true}); err != nil {
			return err
		}
		if j.hitBody, err = json.Marshal(serve.Request{Spec: j.spec}); err != nil {
			return err
		}
		jobs = append(jobs, j)
		return nil
	}
	for _, name := range protocols.Names() {
		p, err := protocols.ByName(name)
		if err != nil {
			return nil, err
		}
		if err := add(p, false); err != nil {
			return nil, err
		}
		for _, m := range mutate.Catalog(p) {
			// ccpsl identifiers allow "-" but not the catalog's "!".
			m.Protocol.Name = strings.ReplaceAll(m.Protocol.Name, "!", "-")
			if err := add(m.Protocol, true); err != nil {
				return nil, err
			}
		}
	}
	return jobs, nil
}

// catalogEnv is a running service behind a loopback listener plus one HTTP
// client per client goroutine.
type catalogEnv struct {
	jobs    []catalogJob
	srv     *serve.Server
	hs      *http.Server
	served  chan error
	base    string
	clients []*http.Client
}

func startCatalogEnv() (*catalogEnv, error) {
	jobs, err := buildCatalog()
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{Workers: workers})
	if err != nil {
		return nil, err
	}
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		drainServer(srv)
		return nil, err
	}
	env := &catalogEnv{jobs: jobs, srv: srv, hs: &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1), base: "http://" + ln.Addr().String()}
	go func() { env.served <- env.hs.Serve(ln) }()
	for i := 0; i < workers; i++ {
		c := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
		env.clients = append(env.clients, c)
		// Open the client's one connection before anything is timed.
		resp, err := c.Get(env.base + "/healthz")
		if err != nil {
			env.close()
			return nil, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	return env, nil
}

// close shuts the listener, drains the service and waits for both.
func (env *catalogEnv) close() {
	for _, c := range env.clients {
		c.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	env.hs.Shutdown(ctx)
	<-env.served
	drainServer(env.srv)
}

func drainServer(srv *serve.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv.Drain(ctx)
}

// verifyReply is the part of a served report the gate checks.
type verifyReply struct {
	Verdict    string `json:"verdict"`
	Essential  int    `json:"essential"`
	Visits     int    `json:"visits"`
	Violations []struct {
		Confirmed bool `json:"confirmed"`
	} `json:"violations"`
}

// post sends one verify request and returns the job status and latency.
func (env *catalogEnv) post(c *http.Client, body []byte) (serve.JobStatus, time.Duration, error) {
	var st serve.JobStatus
	start := time.Now()
	resp, err := c.Post(env.base+"/v1/verify?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return st, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return st, lat, err
	}
	if resp.StatusCode != http.StatusOK {
		return st, lat, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return st, lat, err
	}
	if st.State != serve.StateDone {
		return st, lat, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	return st, lat, nil
}

// catalogSample is one request's outcome.
type catalogSample struct {
	job     int
	cold    bool
	latency time.Duration
	err     error
}

// catalogRun is the measured state shared by the two client goroutines.
type catalogRun struct {
	env *catalogEnv
	o   *outcome
	rec *recorder
	// afterPass runs between passes, outside the timed requests.
	afterPass func() error

	mu sync.Mutex
	// coldReport holds each job's first report; every later report for the
	// job must equal it byte for byte.
	coldReport map[int][]byte
}

// check applies the known-answer gate to one reply.
func (cr *catalogRun) check(j int, cold bool, st serve.JobStatus) {
	job := cr.env.jobs[j]
	if st.Cached == cold {
		cr.o.failf("%s: cached=%t on a %s request", job.name, st.Cached, map[bool]string{true: "cold", false: "hit"}[cold])
	}
	cr.mu.Lock()
	first, seen := cr.coldReport[j]
	if !seen {
		cr.coldReport[j] = append([]byte(nil), st.Report...)
	}
	cr.mu.Unlock()
	if seen && !bytes.Equal(first, st.Report) {
		cr.o.failf("%s: report differs from the first cold report", job.name)
	}
	if seen {
		return
	}
	var rep verifyReply
	if err := json.Unmarshal(st.Report, &rep); err != nil {
		cr.o.failf("%s: undecodable report: %v", job.name, err)
		return
	}
	checkCatalogAnswer(cr.o, job.name, job.mutant, rep)
}

// checkCatalogAnswer compares a decoded report with the committed answer.
func checkCatalogAnswer(o *outcome, name string, mutant bool, rep verifyReply) {
	want, ok := known.Catalog[name]
	if !ok {
		o.failf("%s: no committed answer", name)
		return
	}
	got := catalogAnswer{Verdict: rep.Verdict, Essential: rep.Essential, Visits: rep.Visits}
	if got != want {
		o.failf("%s: got %+v, want %+v", name, got, want)
	}
	if mutant != (rep.Verdict == serve.VerdictViolations) {
		o.failf("%s: verdict %q (mutant=%t)", name, rep.Verdict, mutant)
	}
	for i, v := range rep.Violations {
		if !v.Confirmed {
			o.failf("%s: witness %d not confirmed by the audit", name, i)
		}
	}
}

// hitSweeps is how many times a hit pass walks the catalog.
const hitSweeps = 4

// measure runs alternating cold and hit passes over the catalog for the
// given time and returns the grid cells: a = library specs, b = mutants,
// base = cold, alt = cache hit.
func (cr *catalogRun) measure(seconds float64, rng *rand.Rand, passBase int) (cells [4]*gridRate, samples []catalogSample, passes, coldPasses int, wall time.Duration, err error) {
	for i := range cells {
		cells[i] = newGridRate()
	}
	jobs := cr.env.jobs
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for passes < 2 || time.Now().Before(deadline) {
		cold := (passBase+passes)%2 == 0
		if cold {
			coldPasses++
		}
		order := rng.Perm(len(jobs))
		half := (len(order) + 1) / 2
		parts := [][]int{order[:half:half], order[half:]}
		if !cold {
			// A hit pass takes a small fraction of a cold pass's time
			// (no engine run, no audit), so it walks its half several
			// times to gather enough samples.
			for c, part := range parts {
				for i := 1; i < hitSweeps; i++ {
					parts[c] = append(parts[c], part...)
				}
			}
		}
		got := make([][]catalogSample, len(parts))
		var wg sync.WaitGroup
		for c := range parts {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				client := cr.env.clients[c]
				for _, j := range parts[c] {
					body := jobs[j].hitBody
					if cold {
						body = jobs[j].coldBody
					}
					sp := cr.rec.begin("serve.verify", fmt.Sprintf("p%d/%s", passBase+passes, jobs[j].name), 0)
					st, lat, err := cr.env.post(client, body)
					sp.finish()
					got[c] = append(got[c], catalogSample{job: j, cold: cold, latency: lat, err: err})
					if err == nil {
						cr.check(j, cold, st)
					}
				}
			}(c)
		}
		wg.Wait()
		for _, part := range got {
			for _, s := range part {
				samples = append(samples, s)
				cr.o.attempted++
				if s.err != nil {
					cr.o.failed++
					continue
				}
				cell := 0
				if jobs[s.job].mutant {
					cell = 2
				}
				if !s.cold {
					cell++
				}
				cells[cell].add(jobs[s.job].name, 1, s.latency.Seconds())
			}
		}
		passes++
		if err := cr.afterPass(); err != nil {
			return cells, samples, passes, coldPasses, 0, err
		}
	}
	return cells, samples, passes, coldPasses, time.Since(start), nil
}

func runCatalog(cfg config, o *outcome) error {
	st := &setupTimer[*catalogEnv]{setup: startCatalogEnv, release: (*catalogEnv).close}
	env, err := st.once()
	if err != nil {
		return err
	}
	defer env.close()
	if cfg.trace {
		if _, err := st.seconds(); err != nil {
			return err
		}
	}

	if err := checkIllinois(env, o); err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	cr := &catalogRun{env: env, o: o, coldReport: map[int][]byte{}, afterPass: st.again}
	seconds := cfg.seconds
	if cfg.trace {
		seconds /= 2
	}
	rt := startRuntimeDelta()
	cells, samples, passes, coldPasses, wall, err := cr.measure(seconds, rng, 0)
	if err != nil {
		return err
	}
	setGrid(o, cells)
	catalogInfo(o, samples, wall)
	setup, err := st.seconds()
	if err != nil {
		return err
	}
	o.endToEnd["setup_s"] = metric{setup, "s"}
	if !cfg.trace {
		return nil
	}
	rt.report(o, passes)

	cr.rec = newRecorder()
	tcells, tsamples, _, tcold, _, err := cr.measure(seconds, rng, passes)
	if err != nil {
		return err
	}
	traceOverhead(o, cells, tcells)
	if err := catalogLayers(cr, append(samples, tsamples...), coldPasses+tcold); err != nil {
		return err
	}
	return finishTrace(cr.rec, cfg, o)
}

// checkIllinois checks the paper's own figure before any pass: Illinois
// has 5 essential states (Appendix A.2; see knownAnswers for the visits).
func checkIllinois(env *catalogEnv, o *outcome) error {
	name := protocols.Illinois().Name
	for _, job := range env.jobs {
		if job.name != name {
			continue
		}
		st, _, err := env.post(env.clients[0], job.coldBody)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		var rep verifyReply
		if err := json.Unmarshal(st.Report, &rep); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if rep.Essential != known.IllinoisEssential || rep.Visits != known.IllinoisVisits {
			o.failf("%s: %d essential states after %d visits, want %d after %d", name,
				rep.Essential, rep.Visits, known.IllinoisEssential, known.IllinoisVisits)
		}
		return nil
	}
	o.failf("%s is missing from the catalog", name)
	return nil
}

// catalogInfo records the service's latency and throughput figures.
func catalogInfo(o *outcome, samples []catalogSample, wall time.Duration) {
	var cold, hit []float64
	for _, s := range samples {
		if s.err != nil {
			continue
		}
		ms := float64(s.latency) / 1e6
		if s.cold {
			cold = append(cold, ms)
		} else {
			hit = append(hit, ms)
		}
	}
	o.info["verify_cold_p50_ms"] = metric{quantile(cold, 0.5), "ms"}
	o.info["verify_cold_p99_ms"] = metric{quantile(cold, 0.99), "ms"}
	o.info["verify_hit_p50_ms"] = metric{quantile(hit, 0.5), "ms"}
	o.info["verify_hit_p99_ms"] = metric{quantile(hit, 0.99), "ms"}
	o.info["verify_rps"] = metric{float64(len(cold)+len(hit)) / wall.Seconds(), "1/s"}
	o.info["verify_cold_samples"] = metric{float64(len(cold)), "count"}
	o.info["verify_hit_samples"] = metric{float64(len(hit)), "count"}
}

// catalogLayers runs every catalog job through the same pipeline in
// process, with a span around each module call, and derives the serve,
// ccpsl, compile, core, graph and campaign metrics.
func catalogLayers(cr *catalogRun, samples []catalogSample, coldPasses int) error {
	o, rec, jobs := cr.o, cr.rec, cr.env.jobs
	const reps = 3
	layer := map[string]*gridRate{}
	for _, name := range []string{"parse", "compile", "verify", "graph", "render", "audit"} {
		layer[name] = newGridRate()
	}
	timed := func(name, span, req string, parent int64, f func() error) error {
		sp := rec.begin(span, req, parent)
		start := time.Now()
		err := f()
		layer[name].add(req, 1, time.Since(start).Seconds())
		sp.finish()
		return err
	}
	var witnesses, confirmed int
	for r := 0; r < reps; r++ {
		for _, job := range jobs {
			root := rec.begin("pipeline.job", job.name, 0)
			var p *fsm.Protocol
			var rep *core.Report
			var render []byte
			err := timed("parse", "ccpsl.parse", job.name, root.id(), func() (err error) {
				p, err = ccpsl.Parse(job.spec)
				return err
			})
			if err == nil {
				err = timed("compile", "compile.compile", job.name, root.id(), func() error {
					_, err := compile.Compile(p)
					return err
				})
			}
			var graphS float64
			if err == nil {
				verify := rec.begin("core.verify", job.name, root.id())
				start := time.Now()
				rep, err = core.Verify(p, core.Options{BuildGraph: true, Observer: obs.Funcs{Phase: func(ev obs.PhaseEvent) {
					if ev.Phase == obs.PhaseGraph && ev.End {
						now := time.Now()
						graphS = ev.Elapsed.Seconds()
						rec.add("graph.build", job.name, verify.id(), now.Add(-ev.Elapsed), now)
					}
				}}})
				layer["verify"].add(job.name, 1, time.Since(start).Seconds())
				layer["graph"].add(job.name, 1, graphS)
				verify.finish()
			}
			if err == nil {
				err = timed("render", "core.render", job.name, root.id(), func() (err error) {
					render, err = rep.JSON()
					return err
				})
			}
			if err == nil {
				err = timed("audit", "campaign.audit", job.name, root.id(), func() error {
					for _, v := range rep.Symbolic.Violations {
						ok, note := campaign.ConfirmSymbolicWitness(p, false, v)
						if r == 0 {
							witnesses++
							if ok {
								confirmed++
							} else {
								o.failf("%s: in-process audit rejected a witness: %s", job.name, note)
							}
						}
					}
					return nil
				})
			}
			root.finish()
			if err != nil {
				return fmt.Errorf("%s in process: %w", job.name, err)
			}
			if len(render) == 0 || rep.OK() == job.mutant {
				o.failf("%s: in-process verdict ok=%t (mutant=%t)", job.name, rep.OK(), job.mutant)
			}
		}
	}

	// serve.overhead_s: per job, the median cold round trip minus the
	// in-process time of the steps the service runs (parse, expansion,
	// render, audit; the served path builds no graph); median over jobs.
	coldLat := map[string][]float64{}
	for _, s := range samples {
		if s.err == nil && s.cold {
			coldLat[jobs[s.job].name] = append(coldLat[jobs[s.job].name], s.latency.Seconds())
		}
	}
	var overhead []float64
	for _, job := range jobs {
		inproc := layer["parse"].medianWall(job.name) + layer["verify"].medianWall(job.name) -
			layer["graph"].medianWall(job.name) + layer["render"].medianWall(job.name) + layer["audit"].medianWall(job.name)
		overhead = append(overhead, median(coldLat[job.name])-inproc)
	}
	o.layers["serve.overhead_s"] = metric{median(overhead), "s"}

	var doc obs.Snapshot
	resp, err := cr.env.clients[0].Get(cr.env.base + "/v1/metrics")
	if err != nil {
		return err
	}
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("decoding /v1/metrics: %w", err)
	}
	c := doc.Counters
	o.layers["serve.cache_hit_ratio"] = metric{float64(c["cache_hits_total"]) / float64(max(c["verify_requests_total"], 1)), "ratio"}
	o.layers["serve.engine_runs"] = metric{float64(c["engine_runs_total"]) / float64(max(coldPasses, 1)), "count"}
	o.layers["serve.coalesced"] = metric{float64(c["coalesced_total"]), "count"}
	o.layers["serve.rejected"] = metric{float64(c["rejected_busy_total"] + c["rejected_draining_total"] +
		c["rate_limited_total"] + c["tenant_rejected_total"] + c["shed_batch_total"]), "count"}

	o.layers["ccpsl.parse_s"] = metric{layer["parse"].totalWall(), "s"}
	o.layers["compile.compile_s"] = metric{layer["compile"].totalWall(), "s"}
	o.layers["core.verify_s"] = metric{layer["verify"].totalWall(), "s"}
	o.layers["core.render_s"] = metric{layer["render"].totalWall(), "s"}
	o.layers["graph.build_s"] = metric{layer["graph"].totalWall(), "s"}
	o.layers["campaign.audit_s"] = metric{layer["audit"].totalWall(), "s"}
	o.layers["campaign.witnesses"] = metric{float64(witnesses), "count"}
	o.layers["campaign.confirmed_ratio"] = metric{float64(confirmed) / float64(max(witnesses, 1)), "ratio"}
	return nil
}
