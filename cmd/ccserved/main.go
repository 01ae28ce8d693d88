// Command ccserved is the long-running verification service: an HTTP/JSON
// daemon that accepts ccpsl specifications (or library protocol names),
// verifies them with the symbolic or explicit-state engines, and serves
// results from a content-addressed cache keyed by the canonical spec plus
// engine options (Theorem 1 makes the results deterministic, hence
// perfectly cacheable). Concurrent identical requests coalesce onto one
// engine run; a bounded worker pool with admission control keeps overload
// a 429, not a meltdown.
//
// Usage:
//
//	ccserved -listen 127.0.0.1:8344
//	ccserved -unix /run/ccserved.sock -workers 4 -cache-dir /var/cache/ccserved
//	ccserved -listen 10.0.0.1:8344 -peers 10.0.0.1:8344,10.0.0.2:8344,10.0.0.3:8344
//	ccserved -spec-dir /etc/ccserved/protocols
//
// -spec-dir extends the built-in protocol library at startup with every
// ccpsl specification (*.ccpsl) in the directory; the added names appear
// in GET /v1/protocols and are addressable in verify requests like any
// built-in. A file that cannot be read or parsed, or whose protocol name
// is already taken, fails startup naming the file.
//
// With -peers the node joins a fault-tolerant cluster: before computing a
// cache miss it asks the key's rendezvous-hashed owners for the cached
// result (GET /v1/cache/{key}, CRC-checked), with hedging, per-peer
// circuit breakers and health probing; and when its own pool saturates it
// forwards whole jobs to the least-loaded healthy owner (POST
// /v1/cluster/compute). Any peer failure degrades to local compute — a
// 1-node-alive cluster behaves exactly like a single node. See
// docs/service.md ("Cluster mode").
//
// Per-tenant admission control (-tenant-rate, -tenant-queue-share) keys
// off the X-CC-Tenant header: token buckets bound each tenant's request
// rate and a queue-share cap keeps one tenant from starving the rest;
// refusals are 429s carrying Retry-After. Batch work is shed before
// interactive work under load. See docs/service.md ("Tenancy &
// admission").
//
// Endpoints: POST /v1/verify (async job submission; ?wait=1 blocks),
// POST /v1/verify/batch (many jobs or a protocol×mutation sweep, NDJSON
// streamed), POST /v1/simulate (trace-driven protocol comparison — replay
// a cctrace stream or a server-materialized workload through several
// protocols; same job contract and cache, see docs/workloads.md),
// GET /v1/jobs/{id} (poll; ?wait=1 blocks), DELETE
// /v1/jobs/{id} (cancel), GET /v1/protocols, GET /v1/metrics (the
// observability-registry snapshot; ?scope=cluster merges every reachable
// peer's), GET /healthz, GET /statsz. See docs/service.md and
// docs/observability.md.
//
// On SIGINT/SIGTERM (or -timeout) the server drains: intake closes
// (healthz turns 503, new verifies are rejected), queued and running jobs
// finish within -drain-timeout, then the process exits with the shared
// stopped code.
//
// Exit codes: 0 never in practice (the server runs until stopped), 1 usage
// or internal error, 2 bind failure (address in use, unusable socket path,
// or a foreign file where the socket should go), 3 stopped by signal or
// -timeout after a drain.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/ccpsl"
	"repro/internal/cluster"
	"repro/internal/protocols"
	"repro/internal/runctl"
	"repro/internal/serve"
)

// exitBind is the distinct exit code for listener-bind failures, so a
// supervisor or smoke script can tell "the port is taken / the socket path
// is bad" (retryable elsewhere, or evidence another instance is running)
// from a plain usage error. The numeric value is the verification tools'
// ExitViolation slot, which a server — it never finishes with a verdict —
// can never otherwise produce, keeping the process-level contract
// unambiguous.
const exitBind = 2

// cliOpts carries the service configuration; run takes it whole so tests
// can drive exact configurations.
type cliOpts struct {
	listen       string
	unixSocket   string
	cfg          serve.Config
	drainTimeout time.Duration
	// peers, when non-empty, enables cluster mode; cluster carries the
	// peer-protocol tuning (Self, timeouts, breaker thresholds). The
	// metrics registry is always the server's own, so one /v1/metrics
	// shows both sides.
	peers   []string
	cluster cluster.Config
	// ready, when non-nil, receives the bound listener address once the
	// server is accepting (used by tests to avoid port races).
	ready chan<- string
}

// splitPeers parses the -peers flag: comma-separated base URLs or
// host:port pairs, blanks ignored.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func main() {
	var (
		listen       = flag.String("listen", "127.0.0.1:8344", "TCP listen address (ignored when -unix is set)")
		unixSocket   = flag.String("unix", "", "unix socket path to listen on instead of TCP")
		workers      = flag.Int("workers", 0, "verification worker pool width (0: GOMAXPROCS, capped at 8)")
		queue        = flag.Int("queue", 64, "admission-control bound on queued jobs")
		jobTimeout   = flag.Duration("job-timeout", 60*time.Second, "per-job wall-clock deadline (also caps per-request timeout_ms)")
		cacheBytes   = flag.Int64("cache-bytes", serve.DefaultCacheBytes, "memory result-cache budget in bytes")
		cacheDir     = flag.String("cache-dir", "", "durable disk cache tier directory (empty: memory only)")
		cacheDiskMax = flag.Int64("cache-disk-bytes", 0, "disk cache tier byte budget, enforced by an LRU sweep at startup (0: unbounded)")
		keepJobs     = flag.Int("keep-jobs", 1024, "terminal job records retained for polling")
		specDir      = flag.String("spec-dir", "", "directory of ccpsl specifications (*.ccpsl) to add to the library at startup")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "grace period for in-flight jobs after SIGTERM")
		timeout      = flag.Duration("timeout", 0, "wall-clock limit for the whole service (0: run until signaled)")
		cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile   = flag.String("memprofile", "", "write an allocation profile to this file on exit")
		showVersion  = flag.Bool("version", false, "print version information and exit")

		tenantRate    = flag.Float64("tenant-rate", 0, "per-tenant token-bucket rate in requests/second (0: unlimited)")
		tenantBurst   = flag.Int("tenant-burst", 0, "per-tenant token-bucket burst capacity (0: max(1, 2*rate))")
		tenantShare   = flag.Float64("tenant-queue-share", 0, "fraction of the queue one tenant may occupy (0: 0.75, >=1: unlimited)")
		batchShed     = flag.Float64("batch-shed-fraction", 0, "queue occupancy above which batch work is shed (0: 0.5, >=1: never)")
		batchParallel = flag.Int("batch-parallel", 0, "concurrent jobs per batch request (0: 2*workers, min 4)")
		batchHedge    = flag.Duration("batch-hedge", 0, "fixed straggler re-dispatch deadline for forwarded batch jobs (0: adaptive)")
		batchRetries  = flag.Int("batch-retries", 0, "retries per failed batch job (0: 2, negative: none)")

		peers          = flag.String("peers", "", "comma-separated peer base URLs enabling cluster mode (may include this node's own address)")
		self           = flag.String("self", "", "this node's advertised address, filtered from -peers (default: the bound TCP address)")
		peerFetchTO    = flag.Duration("peer-fetch-timeout", 0, "total wall-clock budget for one peer cache fill across hedges and retries (0: 2s)")
		peerCallTO     = flag.Duration("peer-call-timeout", 0, "per-attempt peer HTTP deadline, the wedge detector (0: 500ms)")
		peerHedge      = flag.Duration("peer-hedge-delay", 0, "fixed hedge deadline before asking the next owner (0: adaptive p90)")
		peerRetries    = flag.Int("peer-retries", 0, "extra peer lookup rounds after the first (0: 1, negative: none)")
		peerBreakFails = flag.Int("peer-breaker-failures", 0, "consecutive failures opening a peer's circuit breaker (0: 3)")
		peerBreakCool  = flag.Duration("peer-breaker-cooldown", 0, "open-breaker cooldown before a half-open trial (0: 5s)")
		peerProbe      = flag.Duration("peer-probe-interval", 0, "background /healthz probe cadence (0: 2s)")
		peerComputeTO  = flag.Duration("peer-compute-timeout", 0, "total wall-clock budget for one forwarded compute across owners (0: 120s)")
	)
	runctl.ParseFlags(flag.CommandLine, os.Args[1:])

	if *showVersion {
		fmt.Println(runctl.VersionString("ccserved"))
		os.Exit(runctl.ExitClean)
	}

	stopProf, err := runctl.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccserved:", err)
		os.Exit(runctl.ExitUsage)
	}
	// os.Exit skips deferred calls, so every exit path flushes the profiles
	// explicitly first.
	exit := func(code int) {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "ccserved:", err)
			if code == 0 {
				code = 1
			}
		}
		os.Exit(code)
	}

	if *specDir != "" {
		added, err := loadSpecDir(*specDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ccserved:", err)
			exit(runctl.ExitUsage)
		}
		fmt.Fprintf(os.Stderr, "ccserved: loaded %d protocol(s) from %s: %s\n",
			len(added), *specDir, strings.Join(added, ", "))
	}

	ctx, stop := runctl.WithSignals(context.Background(), *timeout)
	defer stop()

	code, err := run(ctx, cliOpts{
		listen:     *listen,
		unixSocket: *unixSocket,
		cfg: serve.Config{
			Workers:        *workers,
			QueueDepth:     *queue,
			JobTimeout:     *jobTimeout,
			CacheBytes:     *cacheBytes,
			CacheDir:       *cacheDir,
			DiskCacheBytes: *cacheDiskMax,
			KeepJobs:       *keepJobs,

			TenantRate:        *tenantRate,
			TenantBurst:       *tenantBurst,
			TenantQueueShare:  *tenantShare,
			BatchShedFraction: *batchShed,
			BatchParallel:     *batchParallel,
			BatchHedge:        *batchHedge,
			BatchRetries:      *batchRetries,
		},
		drainTimeout: *drainTimeout,
		peers:        splitPeers(*peers),
		cluster: cluster.Config{
			Self:            *self,
			FetchTimeout:    *peerFetchTO,
			CallTimeout:     *peerCallTO,
			HedgeDelay:      *peerHedge,
			Retries:         *peerRetries,
			BreakerFailures: *peerBreakFails,
			BreakerCooldown: *peerBreakCool,
			ProbeInterval:   *peerProbe,
			ComputeTimeout:  *peerComputeTO,
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccserved:", err)
		if code == 0 {
			code = runctl.ExitUsage
		}
		exit(code)
	}
	exit(code)
}

// loadSpecDir registers every ccpsl specification (*.ccpsl) in dir with
// the protocol library and returns the names added, sorted. Files load in
// name order, so a name collision always reports the same file; any
// unreadable, unparseable or colliding file fails the load.
func loadSpecDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	before := protocols.Names()
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".ccpsl" {
			continue
		}
		path := filepath.Join(dir, e.Name())
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		p, err := ccpsl.Parse(string(src))
		if err == nil {
			err = protocols.Register(p)
		}
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", path, err)
		}
	}
	// Register keys each protocol by its canonical name, so the names
	// added are exactly the library's new entries.
	var added []string
	for _, name := range protocols.Names() {
		if !slices.Contains(before, name) {
			added = append(added, name)
		}
	}
	return added, nil
}

// listenOn binds the configured TCP address or unix socket. A stale unix
// socket file from a previous unclean exit is removed first — removal is
// safe only for sockets, never for foreign files, which are refused
// outright rather than silently shadowed by the bind error. Every failure
// out of here is a bind failure (exit code 2): the operator's address is
// taken, their socket path is unusable, or another instance already runs.
func listenOn(o cliOpts) (net.Listener, error) {
	if o.unixSocket != "" {
		if fi, err := os.Lstat(o.unixSocket); err == nil {
			if fi.Mode()&os.ModeSocket == 0 {
				return nil, fmt.Errorf("bind %s: path exists and is not a socket; refusing to remove a foreign file", o.unixSocket)
			}
			os.Remove(o.unixSocket)
		}
		ln, err := net.Listen("unix", o.unixSocket)
		if err != nil {
			return nil, fmt.Errorf("bind %s: %w (stale instance still running, or the directory is missing or unwritable?)", o.unixSocket, err)
		}
		return ln, nil
	}
	ln, err := net.Listen("tcp", o.listen)
	if err != nil {
		return nil, fmt.Errorf("bind %s: %w (is another ccserved already listening there?)", o.listen, err)
	}
	return ln, nil
}

// run starts the service and blocks until ctx is canceled (signal or
// -timeout), then drains and returns the shared stopped exit code.
func run(ctx context.Context, o cliOpts) (int, error) {
	srv, err := serve.New(o.cfg)
	if err != nil {
		return 0, err
	}
	ln, err := listenOn(o)
	if err != nil {
		return exitBind, err
	}
	if len(o.peers) > 0 {
		ccfg := o.cluster
		ccfg.Peers = o.peers
		ccfg.Metrics = srv.Metrics()
		if ccfg.Self == "" && o.unixSocket == "" {
			ccfg.Self = ln.Addr().String()
		}
		cl, err := cluster.New(ccfg)
		if err != nil {
			ln.Close()
			return 0, err
		}
		srv.SetCluster(cl)
		cl.Start()
		defer cl.Close()
		fmt.Fprintf(os.Stderr, "ccserved: cluster mode, %d peer(s)\n", cl.NumPeers())
	}
	srv.Start()

	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "ccserved: listening on %s\n", ln.Addr())
	if o.ready != nil {
		o.ready <- ln.Addr().String()
	}

	select {
	case err := <-serveErr:
		// The listener died underneath us; drain what is already queued.
		drainCtx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
		defer cancel()
		srv.Drain(drainCtx)
		return 0, fmt.Errorf("ccserved: listener failed: %w", err)
	case <-ctx.Done():
	}

	// Graceful drain: stop intake first so polling clients see 503s and
	// queued work finishes, then shut the HTTP side down.
	fmt.Fprintln(os.Stderr, "ccserved: draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "ccserved:", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		httpSrv.Close()
	}
	if o.unixSocket != "" {
		os.Remove(o.unixSocket)
	}
	fmt.Fprintln(os.Stderr, "ccserved: drained")
	return runctl.ExitCode(runctl.FromContext(ctx)), nil
}
