// Command benchmark is the repository's benchmark: it runs the paper's
// simulation pipeline on four fixed workloads through the public harness
// (sim.RunRate and sim.RunTrace), one job at a time in one process, and
// reports how fast the simulator runs and what the modelled network did.
//
// The workloads (see workloads.go and README.md for why each exists):
//
//	fig9-sweep            Fig. 9 synthetic grid, busy routers, no hooks
//	splash-replay         Figs. 10-11 coherence traces, closed-loop replay
//	sparse-large          32x32 and 64x64 meshes at rate 0.002, idle routers
//	instrumented-fabrics  Optical4, Benes-64, Shufflecast-64 with every hook
//
// The end-to-end run (-trace 0) meters each network only by counting its
// Step calls. Within -seconds it repeats set-up and reports the median,
// then runs the job list pass after pass and reports per-job median host
// time: setup_s, cycles_per_s, peak_heap_mb, allocs_per_cycle, and the
// modelled model_latency_mean_cycles, model_latency_p99_cycles,
// model_delivered and model_energy_uj. The two host times are corrected
// for machine drift by a calibration loop sampled around every set-up and
// before, during and after every job run (see e2eResult.metrics).
//
// The traced run (-trace 1) runs the same set-up and jobs, times every
// kernel Step and Inject, attaches an every-cycle phase profile, replays
// the traffic generator and, where hooks are armed, times each hook alone.
// It reports the per-layer metrics, writes layers.json and a Perfetto span
// file (workload, job, run, kernel calls), and its slowdown against an
// untraced pass as bench.trace_overhead_frac.
//
// Every job's sim.Result is hashed. A run fails a job on a panic, an error,
// a broken conservation invariant, a digest that differs between runs of
// the same job, or, at seed 1, a digest that differs from
// testdata/golden.json (rewritten only by `go test -update`).
//
// Usage, from the repository root:
//
//	bash benchmark/run.sh -workload all|<name> [-seed N] [-seconds S] [-trace 0|1] [-out DIR]
//	bash benchmark/run.sh -compare A.json... -- B.json...
//
// The last line of standard output is one JSON object per workload run:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"

	"phastlane/internal/obs"
)

// manifest identifies the build, machine and inputs behind a report.
type manifest struct {
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Revision   string  `json:"vcs_revision"`
	Modified   bool    `json:"vcs_modified"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

func newManifest(seed uint64, seconds float64) manifest {
	m := manifest{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Revision: "unknown", Seed: seed, Seconds: seconds,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Revision = s.Value
			case "vcs.modified":
				m.Modified = s.Value == "true"
			}
		}
	}
	return m
}

// report is the JSON document a run writes: e2e.json or layers.json.
type report struct {
	Kind      string           `json:"kind"` // "e2e" or "layers"
	Manifest  manifest         `json:"manifest"`
	Workloads []workloadReport `json:"workloads"`
}

// workloadReport is one workload's result in a report.
type workloadReport struct {
	Workload string `json:"workload"`
	// CalibMs is the calibration loop's median sample; Host holds the
	// host-time metrics before the drift correction (end-to-end run only).
	CalibMs   float64           `json:"calib_ms"`
	Host      *hostTimes        `json:"host_uncorrected,omitempty"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]value  `json:"metrics"`
	Digests   map[string]string `json:"digests"`
	Jobs      []jobReport       `json:"jobs"`
	// ElectricalAttributed is the share of sampled electrical step time
	// the named phases explain (traced run only).
	ElectricalAttributed float64 `json:"electrical_attributed_frac,omitempty"`
}

// jobReport is one job's host cost; the kernel-call fields are filled by
// the traced run only.
type jobReport struct {
	Name      string  `json:"name"`
	Kernel    string  `json:"kernel"`
	Cycles    int64   `json:"cycles"`
	Runs      int     `json:"runs"`
	RunNs     float64 `json:"run_ns_median"`
	StepCount int64   `json:"step_count,omitempty"`
	StepNsSum int64   `json:"step_ns_sum,omitempty"`
	StepNsP50 float64 `json:"step_ns_p50,omitempty"`
	StepNsP99 float64 `json:"step_ns_p99,omitempty"`
	Injects   int64   `json:"injects,omitempty"`
	InjectNs  int64   `json:"inject_ns_sum,omitempty"`
}

// resultLine is the last line of standard output for one workload.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func newWorkloadReport(name string, c *checker, list []metric, got map[string]float64) workloadReport {
	return workloadReport{
		Workload: name, Correct: len(c.failures) == 0,
		Attempted: c.attempts, Failed: len(c.failures), Failures: c.failures,
		Metrics: collect(list, got), Digests: c.first,
	}
}

// printResult writes the metric table and then the result line.
func printResult(wr workloadReport, list []metric) error {
	fmt.Printf("== %s: %d runs, %d failed\n", wr.Workload, wr.Attempted, wr.Failed)
	for _, f := range wr.Failures {
		fmt.Printf("   FAIL %s\n", f)
	}
	for _, m := range list {
		v := wr.Metrics[m.name]
		fmt.Printf("   %-34s %16.6g %s\n", m.name, v.Value, v.Unit)
	}
	line, err := json.Marshal(resultLine{Correct: wr.Correct, Attempted: wr.Attempted, Failed: wr.Failed, Metrics: wr.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeSpans writes the traced runs' spans as a Perfetto trace: one
// process per workload, thread 0 for the workload's phases and one thread
// per job.
func writeSpans(path string, runs []*layersResult) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	tf := obs.NewTraceFile(f)
	for i, lr := range runs {
		pid := i + 1
		tf.ProcessName(pid, lr.workload)
		tf.Thread(pid, 0, "workload")
		named := map[int]bool{0: true}
		for _, s := range lr.spans {
			if !named[s.tid] {
				tf.Thread(pid, s.tid, s.name)
				named[s.tid] = true
			}
			tf.Slice(pid, s.tid, s.name, s.start, s.dur, s.args)
		}
	}
	return tf.Close()
}

// runBenchmark runs the selected workloads and writes their report.
func runBenchmark(names []string, seed uint64, seconds float64, traced bool, out string) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	// The simulator is single-threaded. With a second P the collector's
	// background workers run beside it on a shared core, and on a 2-vCPU
	// VM that made one job's host time vary by up to 70% between passes,
	// against about 5% with one P.
	runtime.GOMAXPROCS(1)
	rep := report{Kind: "e2e", Manifest: newManifest(seed, seconds)}
	var layerRuns []*layersResult
	for _, name := range names {
		w, err := workloadByName(name)
		if err != nil {
			return err
		}
		var wr workloadReport
		list := e2eMetrics
		if traced {
			lr, err := runLayers(w, seed, false)
			if err != nil {
				return err
			}
			list = layerMetrics
			wr = newWorkloadReport(name, lr.check, list, lr.metrics)
			wr.CalibMs = lr.metrics["bench.calib_ms"]
			wr.ElectricalAttributed = lr.electricalAttributed
			wr.Jobs = lr.jobs
			layerRuns = append(layerRuns, lr)
		} else {
			r, err := runE2E(w, seed, seconds, false)
			if err != nil {
				return err
			}
			got, host := r.metrics()
			wr = newWorkloadReport(name, r.check, list, got)
			wr.CalibMs, wr.Host = median(r.calibMs), &host
			for i, j := range r.jobs {
				wr.Jobs = append(wr.Jobs, jobReport{
					Name: j.name, Kernel: r.first[i].kernel, Cycles: r.first[i].cycles,
					Runs: len(r.runNs[i]), RunNs: median(r.runNs[i]),
				})
			}
		}
		rep.Workloads = append(rep.Workloads, wr)
		if err := printResult(wr, list); err != nil {
			return err
		}
	}
	if !traced {
		return writeJSON(filepath.Join(out, "e2e.json"), rep)
	}
	rep.Kind = "layers"
	if err := writeJSON(filepath.Join(out, "layers.json"), rep); err != nil {
		return err
	}
	return writeSpans(filepath.Join(out, "spans.json"), layerRuns)
}

func main() {
	workload := flag.String("workload", "all", "workload to run: all, or one of the four names")
	seed := flag.Uint64("seed", 1, "seed every job's inputs derive from")
	seconds := flag.Float64("seconds", 20, "host seconds the end-to-end run takes per workload, set-up included")
	traceMode := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	out := flag.String("out", ".bench_build/out", "directory for e2e.json, layers.json and spans.json")
	compare := flag.Bool("compare", false, "compare report files: -compare A.json... -- B.json...")
	spec := flag.String("spec", "BENCHMARK.json", "benchmark description holding the bounds -compare applies")
	flag.Parse()

	if *compare {
		code, err := runCompare(flag.Args(), *spec, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
		}
		os.Exit(code)
	}
	var err error
	switch {
	case flag.NArg() > 0:
		err = fmt.Errorf("unexpected arguments %v", flag.Args())
	case *seconds <= 0:
		err = errors.New("-seconds must be positive")
	case *traceMode != 0 && *traceMode != 1:
		err = errors.New("-trace must be 0 or 1")
	}
	if err == nil {
		names := []string{*workload}
		if *workload == "all" {
			names = names[:0]
			for _, w := range workloads {
				names = append(names, w.name)
			}
		}
		err = runBenchmark(names, *seed, *seconds, *traceMode == 1, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
}
