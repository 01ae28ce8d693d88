package main

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/clitest"
	"repro/internal/fsm"
	"repro/internal/runctl"
)

func TestParseRef(t *testing.T) {
	cases := []struct {
		tok   string
		n     int
		cache int
		op    fsm.Op
		ok    bool
	}{
		{"0R", 3, 0, fsm.OpRead, true},
		{"2W", 3, 2, fsm.OpWrite, true},
		{"1Z", 3, 1, fsm.OpReplace, true},
		{"1z", 3, 1, fsm.OpReplace, true},
		{"12R", 16, 12, fsm.OpRead, true},
		{"3R", 3, 0, "", false},  // out of range
		{"xR", 3, 0, "", false},  // bad index
		{"1Q", 3, 0, "", false},  // bad op
		{"R", 3, 0, "", false},   // too short
		{"-1R", 3, 0, "", false}, // negative
	}
	for _, tc := range cases {
		cache, op, err := parseRef(tc.tok, tc.n)
		if tc.ok && (err != nil || cache != tc.cache || op != tc.op) {
			t.Errorf("parseRef(%q) = %d,%s,%v", tc.tok, cache, op, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("parseRef(%q) should fail", tc.tok)
		}
	}
}

func TestRunScript(t *testing.T) {
	var out strings.Builder
	in := strings.NewReader("0R\n1R\n1W\n0R\nq\n")
	if err := run(context.Background(), &out, in, "illinois", 3, false); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"protocol Illinois",
		"rule read-miss-from-memory",
		"rule read-miss-from-cache",
		"rule write-hit-shared",
		"rule read-miss-dirty-owner",
		"Valid-Exclusive",
		"Dirty",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("replay output missing %q:\n%s", want, s)
		}
	}
	// Memory legitimately goes stale under a write-back protocol; cache
	// lines and the violation marker must stay clean.
	if strings.Contains(s, "!!") {
		t.Errorf("coherent replay must not flag violations:\n%s", s)
	}
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, "cache ") && strings.Contains(line, "STALE") {
			t.Errorf("a cache line went stale in a coherent replay: %q", line)
		}
	}
}

func TestRunNoOpReplacement(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), &out, strings.NewReader("0Z\n"), "msi", 2, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "no-op") {
		t.Errorf("replacing an absent block must be reported as a no-op:\n%s", out.String())
	}
}

func TestRunScriptErrors(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), &out, strings.NewReader("9R\n"), "illinois", 2, false); err == nil {
		t.Error("out-of-range reference must fail in script mode")
	}
	if err := run(context.Background(), &out, strings.NewReader(""), "nonexistent", 2, false); err == nil {
		t.Error("unknown protocol must fail")
	}
	if err := run(context.Background(), &out, strings.NewReader(""), "illinois", 0, false); err == nil {
		t.Error("zero caches must fail")
	}
}

func TestRunInteractiveToleratesBadInput(t *testing.T) {
	var out strings.Builder
	in := strings.NewReader("bogus\n0R\nquit\n")
	if err := run(context.Background(), &out, in, "illinois", 2, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "rule read-miss-from-memory") {
		t.Error("interactive mode must continue after a bad token")
	}
}

// TestRunCanceledStops checks that a canceled context ends the replay with
// a structured stop error before the next reference is applied.
func TestRunCanceledStops(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out strings.Builder
	err := run(ctx, &out, strings.NewReader("0R\n1W\n"), "illinois", 2, false)
	if !errors.Is(err, runctl.ErrCanceled) {
		t.Fatalf("err = %v, want runctl.ErrCanceled", err)
	}
	if strings.Contains(out.String(), "step 1") {
		t.Error("no step must execute under a pre-canceled context")
	}
}

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestBadFlagExitCode pins the flag half of the exit-code contract on the
// real entry point: an unknown flag is a usage error, -h a clean exit.
func TestBadFlagExitCode(t *testing.T) {
	clitest.ExpectCode(t, runctl.ExitUsage, "-bogus")
	clitest.ExpectCode(t, runctl.ExitClean, "-h")
}
