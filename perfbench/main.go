// Command perfbench is the repository benchmark: one process that runs a
// named workload against the verifier, the service and the trace replayer,
// checks every output against known answers, and prints its metrics.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	perfbench --selfcheck
//
// With --trace 0 it measures the end-to-end metrics with no tracing. With
// --trace 1 it measures the workload twice, untraced and then traced, and
// reports the per-layer metrics, the tracing overhead and each layer's self
// time; the spans go to .bench_build/spans/. The last line of standard
// output is one JSON object; the lines before it print every metric by
// name for people. See README.md for the workloads and the metric map.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// workers is the parallel width of every client pool and parallel driver:
// the core count of the host the benchmark is sized for.
const workers = 2

// spanDir is where a traced run writes its spans, relative to the checkout
// root the benchmark runs from.
const spanDir = ".bench_build/spans"

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run hands back to main.
type outcome struct {
	attempted, failed int
	// gate lists known-answer failures; any entry fails the run.
	gate     []string
	gateSeen map[string]bool
	gateMu   sync.Mutex
	// endToEnd holds the grid cells (a_base_per_s, ...) and setup_s.
	endToEnd map[string]metric
	// layers holds the per-layer metrics of a traced run.
	layers map[string]metric
	// info holds the workload's own end-to-end figures under the names
	// README.md uses (verify_cold_p50_ms, enum_states_per_s, ...); they
	// are printed for people and are not part of the JSON result.
	info map[string]metric
}

func newOutcome() *outcome {
	return &outcome{gateSeen: map[string]bool{}, endToEnd: map[string]metric{}, layers: map[string]metric{}, info: map[string]metric{}}
}

// failf records a known-answer failure once; it is safe for concurrent use.
func (o *outcome) failf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	o.gateMu.Lock()
	defer o.gateMu.Unlock()
	if !o.gateSeen[msg] {
		o.gateSeen[msg] = true
		o.gate = append(o.gate, msg)
	}
}

// workloads maps each name to the function that sets it up, measures it
// and checks its answers.
var workloads = map[string]func(cfg config, o *outcome) error{
	"catalog-served": runCatalog,
	"state-space":    runStateSpace,
	"trace-replay":   runTraceReplay,
}

// workloadOrder is the order --selfcheck runs them in.
var workloadOrder = []string{"catalog-served", "state-space", "trace-replay"}

func main() {
	var cfg config
	var traceFlag int
	selfcheck := flag.Bool("selfcheck", false, "run every workload briefly and check the metric set and the known-answer gate")
	flag.StringVar(&cfg.workload, "workload", "", "workload name: "+strings.Join(workloadOrder, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the workload's inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	cfg.trace = traceFlag == 1

	if *selfcheck {
		if err := runSelfCheck(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench selfcheck:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "perfbench selfcheck: ok")
		return
	}
	if flag.NArg() != 0 || (traceFlag != 0 && traceFlag != 1) || cfg.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	o, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := printResult(os.Stdout, cfg, o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if len(o.gate) > 0 {
		os.Exit(1)
	}
}

// runWorkload runs cfg.workload and adds the metrics every workload shares.
func runWorkload(cfg config) (*outcome, error) {
	run, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadOrder, ", "))
	}
	o := newOutcome()
	if err := run(cfg, o); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	o.endToEnd["peak_rss_mb"] = metric{rss, "MB"}
	o.info["failed_ratio"] = metric{float64(o.failed) / float64(max(o.attempted, 1)), "ratio"}
	if cfg.trace {
		spec, err := readBenchmarkSpec()
		if err != nil {
			return nil, err
		}
		for _, m := range spec.PerLayer {
			if _, ok := o.layers[m.Name]; !ok {
				o.layers[m.Name] = metric{0, m.Unit}
			}
		}
	}
	return o, nil
}

// printResult prints every metric by name, then the JSON result line.
func printResult(out io.Writer, cfg config, o *outcome) error {
	w := bufio.NewWriter(out)
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %t\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	for _, set := range []map[string]metric{o.info, o.endToEnd, o.layers} {
		for _, name := range sortedKeys(set) {
			fmt.Fprintf(w, "%-34s %16s %s\n", name, formatValue(set[name].Value), set[name].Unit)
		}
	}
	for _, g := range o.gate {
		fmt.Fprintln(w, "known-answer check failed:", g)
	}
	metrics := o.endToEnd
	if cfg.trace {
		metrics = o.layers
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(o.gate) == 0, o.attempted, o.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	return w.Flush()
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', 8, 64)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// median returns the median of xs (0 for none); xs is sorted in place.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// setupReps is how many times each workload sets up; setup_s is the median.
const setupReps = 11

// setupTimer sets a workload up and times it. The first set-up is the one
// the run uses; the others run between measured passes, so that setup_s
// meets the same host conditions as the measured work, and are released.
type setupTimer[T any] struct {
	setup   func() (T, error)
	release func(T)
	ds      []float64
}

func (t *setupTimer[T]) once() (T, error) {
	start := time.Now()
	v, err := t.setup()
	if err == nil {
		t.ds = append(t.ds, time.Since(start).Seconds())
	}
	return v, err
}

// again times one more set-up, until setupReps have been timed.
func (t *setupTimer[T]) again() error {
	if len(t.ds) >= setupReps {
		return nil
	}
	v, err := t.once()
	if err != nil {
		return err
	}
	t.release(v)
	return nil
}

// seconds times the set-ups still missing and returns the median. A traced
// run calls it before measuring, so that the go.* counters of the measured
// window hold no set-up work.
func (t *setupTimer[T]) seconds() (float64, error) {
	for len(t.ds) < setupReps {
		if err := t.again(); err != nil {
			return 0, err
		}
	}
	return median(t.ds), nil
}

// gridRate is a grid cell's rate: the units of work summed over the cell's
// items, divided by the sum of each item's median wall time. Taking each
// item's median first keeps one slow sample from moving the cell.
type gridRate struct {
	units map[string]float64
	walls map[string][]float64
}

func newGridRate() *gridRate {
	return &gridRate{units: map[string]float64{}, walls: map[string][]float64{}}
}

// add records one sample of item: units of work done in wall seconds.
func (g *gridRate) add(item string, units, wall float64) {
	g.units[item] = units
	g.walls[item] = append(g.walls[item], wall)
}

// rate returns units per second, or 0 when nothing was measured.
func (g *gridRate) rate() float64 {
	var units float64
	for _, u := range g.units {
		units += u
	}
	if wall := g.totalWall(); wall > 0 {
		return units / wall
	}
	return 0
}

// medianWall returns item's median wall time in seconds.
func (g *gridRate) medianWall(item string) float64 {
	return median(g.walls[item])
}

// totalWall returns the sum of the items' median wall times.
func (g *gridRate) totalWall() float64 {
	var wall float64
	for _, ws := range g.walls {
		wall += median(ws)
	}
	return wall
}

// gridCells are the four end-to-end rate cells every workload reports; see
// README.md for what a and b, base and alt mean in each workload.
var gridCells = []string{"a_base_per_s", "a_alt_per_s", "b_base_per_s", "b_alt_per_s"}

// setGrid stores the four cells as end-to-end metrics.
func setGrid(o *outcome, cells [4]*gridRate) {
	for i, name := range gridCells {
		o.endToEnd[name] = metric{cells[i].rate(), "1/s"}
	}
}

// traceOverhead reports, per grid cell, the traced rate minus the untraced
// one (negative when tracing slows the cell down).
func traceOverhead(o *outcome, untraced, traced [4]*gridRate) {
	for i, name := range gridCells {
		delta := traced[i].rate() - untraced[i].rate()
		o.layers["trace."+strings.TrimSuffix(name, "_per_s")+"_delta_per_s"] = metric{delta, "1/s"}
	}
}

// runtimeDelta captures the Go runtime counters over a measured window.
type runtimeDelta struct {
	start runtime.MemStats
}

func startRuntimeDelta() *runtimeDelta {
	d := &runtimeDelta{}
	runtime.ReadMemStats(&d.start)
	return d
}

// report stores the allocations, bytes and GC pause time per pass.
func (d *runtimeDelta) report(o *outcome, passes int) {
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	n := float64(max(passes, 1))
	o.layers["go.allocs"] = metric{float64(end.Mallocs-d.start.Mallocs) / n, "count"}
	o.layers["go.alloc_bytes"] = metric{float64(end.TotalAlloc-d.start.TotalAlloc) / n, "B"}
	o.layers["go.gc_pause_s"] = metric{float64(end.PauseTotalNs-d.start.PauseTotalNs) / 1e9 / n, "s"}
}
