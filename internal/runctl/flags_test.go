package runctl

import (
	"flag"
	"io"
	"testing"
)

// TestFlagExitCode pins how parse failures map onto the exit-code
// contract: help is a clean exit, every other parse error is a usage
// error (never the flag package's 2, which means violations here).
func TestFlagExitCode(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.Int("n", 1, "")
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-h"}, ExitClean},
		{[]string{"-help"}, ExitClean},
		{[]string{"-bogus"}, ExitUsage},
		{[]string{"-n", "many"}, ExitUsage},
	} {
		err := fs.Parse(tc.args)
		if err == nil {
			t.Fatalf("%v: parse succeeded", tc.args)
		}
		if got := flagExitCode(err); got != tc.want {
			t.Errorf("%v: exit %d, want %d", tc.args, got, tc.want)
		}
	}
}

// TestParseFlagsAccepts checks that good arguments parse without exiting
// and that ParseFlags leaves the set in ContinueOnError mode.
func TestParseFlagsAccepts(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ExitOnError)
	n := fs.Int("n", 1, "")
	ParseFlags(fs, []string{"-n", "3", "rest"})
	if *n != 3 || fs.NArg() != 1 {
		t.Fatalf("n=%d args=%v, want 3 and one positional", *n, fs.Args())
	}
	if fs.ErrorHandling() != flag.ContinueOnError {
		t.Fatalf("error handling %v, want ContinueOnError", fs.ErrorHandling())
	}
}
