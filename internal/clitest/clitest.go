// Package clitest runs a command's main function in a child process, so
// the command's tests can assert the exit codes and output of its real
// entry point, flag parsing included. A command's main_test.go hands its
// main function over from TestMain:
//
//	func TestMain(m *testing.M) { clitest.Main(m, main) }
//
// and its tests then call Run with command-line arguments.
package clitest

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"testing"
)

// argsEnv carries the child's command-line arguments, JSON-encoded; its
// presence is what marks the test binary as a child.
const argsEnv = "CLITEST_ARGS"

// Main runs main with the arguments Run passed when the test binary was
// started as a child (exiting 0 if main returns), and the tests otherwise.
func Main(m *testing.M, main func()) {
	enc, child := os.LookupEnv(argsEnv)
	if !child {
		os.Exit(m.Run())
	}
	var args []string
	if err := json.Unmarshal([]byte(enc), &args); err != nil {
		fmt.Fprintln(os.Stderr, "clitest:", err)
		os.Exit(125)
	}
	os.Args = append(os.Args[:1], args...)
	main()
	os.Exit(0)
}

// Result is the outcome of one child run.
type Result struct {
	Code   int
	Stdout string
	Stderr string
}

// Run starts the test binary as a child running the command's main with
// args, waits for it and returns its exit code and output.
func Run(t testing.TB, args ...string) Result {
	t.Helper()
	enc, err := json.Marshal(args)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), argsEnv+"="+string(enc))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	res := Result{}
	if err := cmd.Run(); err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("running %v: %v", args, err)
		}
		res.Code = ee.ExitCode()
	}
	res.Stdout, res.Stderr = stdout.String(), stderr.String()
	return res
}

// ExpectCode runs the command with args and fails the test unless it
// exits with want.
func ExpectCode(t testing.TB, want int, args ...string) Result {
	t.Helper()
	res := Run(t, args...)
	if res.Code != want {
		t.Errorf("%v: exit %d, want %d\nstderr: %s", args, res.Code, want, res.Stderr)
	}
	return res
}
