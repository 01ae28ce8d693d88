package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/enum"
	"repro/internal/fsm"
	"repro/internal/protocols"
	"repro/internal/runctl"
)

// runStep steps one protocol through an explicit reference sequence and
// prints the evolving global state: the rule that fired, the per-cache
// states and data freshness, the memory state, and any invariant
// violations, so a buggy design's first incoherent step is visible. With
// no -script it reads references from stdin interactively.
func runStep(args []string) (int, error) {
	fs := flag.NewFlagSet("cctrace step", flag.ContinueOnError)
	var (
		protoName = fs.String("protocol", "illinois", "built-in protocol name ("+strings.Join(protocols.Names(), ", ")+")")
		n         = fs.Int("n", 3, "number of caches")
		script    = fs.String("script", "", "space-separated references, e.g. \"0R 1W 0Z\"; empty reads stdin")
		timeout   = fs.Duration("timeout", 0, "wall-clock limit for the whole session (0: none)")
	)
	runctl.ParseFlags(fs, args)
	if fs.NArg() != 0 {
		return 0, fmt.Errorf("step takes no positional arguments, got %q", fs.Args())
	}

	ctx, stop := runctl.WithSignals(context.Background(), *timeout)
	defer stop()

	var in io.Reader = os.Stdin
	if *script != "" {
		in = strings.NewReader(strings.ReplaceAll(*script, " ", "\n"))
	}
	err := stepSession(ctx, os.Stdout, in, *protoName, *n, *script == "")
	if runctl.IsStop(err) {
		fmt.Fprintln(os.Stderr, "cctrace: stopped early:", err)
		return runctl.ExitStopped, nil
	}
	return runctl.ExitClean, err
}

// parseRef parses a "<cache><op>" token like "0R" or "12W".
func parseRef(tok string, n int) (int, fsm.Op, error) {
	tok = strings.TrimSpace(tok)
	if len(tok) < 2 {
		return 0, "", fmt.Errorf("reference %q too short (want e.g. 0R)", tok)
	}
	opCh := strings.ToUpper(tok[len(tok)-1:])
	cache, err := strconv.Atoi(tok[:len(tok)-1])
	if err != nil {
		return 0, "", fmt.Errorf("reference %q: bad cache index", tok)
	}
	if cache < 0 || cache >= n {
		return 0, "", fmt.Errorf("reference %q: cache %d out of range 0..%d", tok, cache, n-1)
	}
	switch opCh {
	case "R", "W", "Z":
		return cache, fsm.Op(opCh), nil
	default:
		return 0, "", fmt.Errorf("reference %q: operation must be R, W or Z", tok)
	}
}

func freshness(v, latest int64) string {
	switch {
	case v == fsm.NoData:
		return "-"
	case v == latest:
		return "fresh"
	default:
		return "STALE"
	}
}

func render(w io.Writer, c *fsm.Config) {
	for i, s := range c.States {
		fmt.Fprintf(w, "  cache %d: %-16s %s\n", i, s, freshness(c.Versions[i], c.Latest))
	}
	fmt.Fprintf(w, "  memory:  %s (latest store: v%d)\n", freshness(c.MemVersion, c.Latest), c.Latest)
}

// stepSession applies the references read from in, one per line, to an
// n-cache configuration of the named protocol. A bad reference ends a
// scripted session with an error; an interactive one reports it and reads
// on.
func stepSession(ctx context.Context, w io.Writer, in io.Reader, protoName string, n int, interactive bool) error {
	p, err := protocols.ByName(protoName)
	if err != nil {
		return err
	}
	if n < 1 {
		return fmt.Errorf("need at least one cache")
	}
	c := fsm.NewConfig(p, n)
	fmt.Fprintf(w, "protocol %s, %d caches; initial state:\n", p.Name, n)
	render(w, c)
	if interactive {
		fmt.Fprintln(w, "enter references like 0R, 1W, 2Z (q to quit):")
	}

	sc := bufio.NewScanner(in)
	step := 0
	for sc.Scan() {
		if err := runctl.FromContext(ctx); err != nil {
			return fmt.Errorf("session stopped before step %d: %w", step+1, err)
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line == "q" || line == "quit" || line == "exit" {
			break
		}
		cache, op, err := parseRef(line, n)
		if err != nil {
			if !interactive {
				return err
			}
			fmt.Fprintln(w, " ", err)
			continue
		}
		step++
		res, err := fsm.Step(p, c, cache, op)
		if err != nil {
			return fmt.Errorf("step %d: %w", step, err)
		}
		fmt.Fprintf(w, "\nstep %d: cache %d %s", step, cache, op)
		switch {
		case res.Rule == nil:
			fmt.Fprintf(w, " — no-op (no rule for %s in state %s)\n", op, c.States[cache])
		default:
			fmt.Fprintf(w, " — rule %s", res.Rule.Name)
			if res.Supplier >= 0 {
				fmt.Fprintf(w, " (supplied by cache %d)", res.Supplier)
			}
			if op == fsm.OpRead {
				fmt.Fprintf(w, " read %s", freshness(res.ReadVersion, c.Latest))
			}
			fmt.Fprintln(w)
		}
		// Keep versions readable on long sessions.
		enum.Canonicalize(c)
		render(w, c)
		for _, v := range fsm.CheckConfig(p, c, true) {
			fmt.Fprintf(w, "  !! %s\n", v.Error())
		}
	}
	return sc.Err()
}
