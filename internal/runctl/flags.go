package runctl

import (
	"errors"
	"flag"
	"os"
)

// ParseFlags parses args into fs and ends the process on a parse failure
// under the shared exit-code contract. The flag package's ExitOnError
// would exit 2, which these tools reserve for violations: here -h and
// -help exit ExitClean after the usage text, and any other error (an
// unknown flag, a bad value) exits ExitUsage after the flag package's
// message. fs is switched to flag.ContinueOnError.
func ParseFlags(fs *flag.FlagSet, args []string) {
	fs.Init(fs.Name(), flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		os.Exit(flagExitCode(err))
	}
}

// flagExitCode maps a FlagSet.Parse error onto the exit-code contract.
func flagExitCode(err error) int {
	if errors.Is(err, flag.ErrHelp) {
		return ExitClean
	}
	return ExitUsage
}
