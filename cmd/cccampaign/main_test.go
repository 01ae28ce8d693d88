package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/campaign"
	"repro/internal/clitest"
	"repro/internal/runctl"
)

func TestBuildJobsCrossProduct(t *testing.T) {
	jobs, err := buildJobs("illinois,dragon", "enum-strict,symbolic", "2,3", false, false)
	if err != nil {
		t.Fatal(err)
	}
	// 2 protocols × (2 enum counts + 1 symbolic).
	if len(jobs) != 6 {
		t.Fatalf("got %d jobs, want 6: %+v", len(jobs), jobs)
	}
	names := map[string]bool{}
	for _, j := range jobs {
		names[j.Name] = true
	}
	for _, want := range []string{
		"Illinois-enum-strict-n2", "Illinois-enum-strict-n3", "Illinois-symbolic",
		"Dragon-enum-strict-n2", "Dragon-enum-strict-n3", "Dragon-symbolic",
	} {
		if !names[want] {
			t.Errorf("missing job %q in %v", want, names)
		}
	}
}

func TestBuildJobsMutants(t *testing.T) {
	jobs, err := buildJobs("illinois", "enum-strict", "3", false, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) == 0 {
		t.Fatal("mutant campaign built no jobs")
	}
	for _, j := range jobs {
		if j.Proto == nil {
			t.Errorf("mutant job %s carries no explicit protocol", j.Name)
		}
	}
}

func TestParseChaos(t *testing.T) {
	ops, err := parseChaos("kill:a-enum-strict-n4:2,corrupt:a-enum-strict-n4:2")
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 2 || ops[0].Kind != "kill" || ops[1].AtSave != 2 {
		t.Fatalf("parsed %+v", ops)
	}
	for _, bad := range []string{"boom:j:1", "kill:j", "kill:j:0", "kill:j:x"} {
		if _, err := parseChaos(bad); err == nil {
			t.Errorf("parseChaos(%q) accepted invalid spec", bad)
		}
	}
}

func TestBadFlags(t *testing.T) {
	if _, err := buildJobs("illinois", "warp-drive", "3", false, false); err == nil {
		t.Error("unknown engine accepted")
	}
	if _, err := buildJobs("illinois", "enum-strict", "zero", false, false); err == nil {
		t.Error("bad cache count accepted")
	}
	if _, err := buildJobs("no-such-proto", "symbolic", "3", false, false); err == nil {
		t.Error("unknown protocol accepted")
	}
}

func TestExitCodeMapping(t *testing.T) {
	// A clean fleet exits 0; a mutant fleet with confirmed witnesses
	// exits 2. run() writes to a real file to mirror main().
	tmp, err := os.Create(filepath.Join(t.TempDir(), "out.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	cleanJobs, err := buildJobs("illinois", "symbolic", "3", false, false)
	if err != nil {
		t.Fatal(err)
	}
	code, err := run(context.Background(), tmp, campaign.Spec{Jobs: cleanJobs}, "")
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("clean campaign exit = %d, want 0", code)
	}

	mutantJobs, err := buildJobs("illinois", "symbolic", "3", false, true)
	if err != nil {
		t.Fatal(err)
	}
	code, err = run(context.Background(), tmp, campaign.Spec{Jobs: mutantJobs}, "")
	if err != nil {
		t.Fatal(err)
	}
	if code != 2 {
		t.Fatalf("mutant campaign exit = %d, want 2 (confirmed violations)", code)
	}
}

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestBadFlagExitCode pins the flag half of the exit-code contract on the
// real entry point: an unknown flag is a usage error, -h a clean exit.
func TestBadFlagExitCode(t *testing.T) {
	clitest.ExpectCode(t, runctl.ExitUsage, "-bogus")
	clitest.ExpectCode(t, runctl.ExitClean, "-h")
}
