package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// commandEnv, set in a child process of the test binary, makes it the
// command; see TestMain.
const commandEnv = "PHASTLANE_TEST_COMMAND"

// TestMain runs the command on the process arguments instead of the
// tests when commandEnv is set: the command exits through os.Exit on an
// error, so the tests of its exit status re-execute the test binary as
// the command.
func TestMain(m *testing.M) {
	if os.Getenv(commandEnv) == "1" {
		run(os.Args[1:], os.Stdout)
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// Every flag error exits 1 with a message naming the flag, before the
// run starts.
func TestFlagErrorsExit1(t *testing.T) {
	fabric := []string{"-topo", "benes", "-width", "8", "-height", "1"}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-net", "hybrid"}, `unknown -net "hybrid"`},
		{[]string{"-net", "both"}, `unknown -net "both"`},
		{[]string{"-why-out", "report.json"}, "-why-out applies with -why only"},
		{[]string{"-min-attrib", "0.5"}, "-min-attrib applies with -why only"},
		{[]string{"-cc", "-trace", "ocean.trace"}, "-cc applies to synthetic-traffic runs, not -trace replay"},
		{[]string{"-trace", "ocean.trace", "-pattern", "Transpose"}, "-pattern applies to synthetic-traffic runs, not -trace replay"},
		{[]string{"-trace", "ocean.trace", "-rate", "0.9"}, "-rate applies to synthetic-traffic runs, not -trace replay"},
		{[]string{"-trace", "ocean.trace", "-warmup", "7"}, "-warmup applies to synthetic-traffic runs, not -trace replay"},
		{[]string{"-trace", "ocean.trace", "-measure", "5"}, "-measure applies to synthetic-traffic runs, not -trace replay"},
		{[]string{"-net", "electrical", "-hops", "5"}, "-hops applies to the optical mesh only"},
		{[]string{"-window", "-5"}, "-window -5 is negative"},
		{append([]string{"-loss-timeout", "-5"}, fabric...), "fabsim: loss timeout -5"},
		{append([]string{"-net", "electrical", "-delay", "-3"}, fabric...), "-delay -3 is negative"},
	} {
		cmd := exec.Command(os.Args[0], tc.args...)
		cmd.Env = append(os.Environ(), commandEnv+"=1")
		out, err := cmd.CombinedOutput()
		if code := cmd.ProcessState.ExitCode(); err == nil || code != 1 {
			t.Errorf("%v exited %d (%v), want 1:\n%s", tc.args, code, err, out)
			continue
		}
		if want := "phastlane: " + tc.want; !strings.Contains(string(out), want) {
			t.Errorf("%v printed %q, want %q", tc.args, out, want)
		}
	}
}

// Every hook composes on one run and none perturbs it: a run under a
// fault plan and the congestion governor prints the same report lines
// with the deep-dive outputs, the tail-blame report and the flight
// recorder attached as without them, and writes every file.
func TestHooksCompose(t *testing.T) {
	args := []string{
		"-width", "4", "-height", "4", "-rate", "0.3", "-warmup", "200", "-measure", "800", "-seed", "3",
		"-faults", "seed=3;dead-link@5:E;stuck@10", "-retry-limit", "16", "-loss-timeout", "4000", "-cc",
	}
	var plain strings.Builder
	run(args, &plain)
	for _, want := range []string{"delivered ", "lost ", "cc: mean admitted rate"} {
		if !strings.Contains(plain.String(), want) {
			t.Fatalf("plain run printed no %q:\n%s", want, plain.String())
		}
	}

	dir := t.TempDir()
	file := func(name string) string { return filepath.Join(dir, name) }
	var hooked strings.Builder
	run(append(args,
		"-why", "-why-out", file("why.json"),
		"-trace-out", file("trace.json"), "-metrics-out", file("metrics.csv"),
		"-series-out", file("series.csv"), "-flight-record", file("flight.jsonl"),
	), &hooked)
	if !strings.HasPrefix(hooked.String(), plain.String()) {
		t.Errorf("hooks changed the report lines:\nwithout:\n%s\nwith:\n%s", plain.String(), hooked.String())
	}
	for _, want := range []string{"tail-blame report: optical", "wrote " + file("trace.json")} {
		if !strings.Contains(hooked.String(), want) {
			t.Errorf("hooked run printed no %q:\n%s", want, hooked.String())
		}
	}
	for _, name := range []string{"trace.json", "metrics.csv", "series.csv", "flight.jsonl"} {
		if fi, err := os.Stat(file(name)); err != nil || fi.Size() == 0 {
			t.Errorf("%s not written: %v", name, err)
		}
	}
	data, err := os.ReadFile(file("why.json"))
	if err != nil {
		t.Fatal(err)
	}
	var reports []struct {
		Name   string `json:"name"`
		Cohort int    `json:"cohort"`
	}
	if err := json.Unmarshal(data, &reports); err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || reports[0].Name != "optical" || reports[0].Cohort == 0 {
		t.Errorf("-why-out holds %+v, want one optical report with a cohort", reports)
	}
}
