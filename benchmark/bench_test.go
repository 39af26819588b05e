package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"phastlane/internal/core"
	"phastlane/internal/electrical"
	"phastlane/internal/fabsim"
	"phastlane/internal/figures"
	"phastlane/internal/sim"
	"phastlane/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json from a seed-1 run of every workload")

// transparencyJobs are one short job per kernel with every hook armed.
func transparencyJobs() []*job {
	var jobs []*job
	for _, k := range []struct {
		kernel string
		build  func(int64) sim.Network
	}{
		{kernelCore, figures.Optical4.Build},
		{kernelElectrical, figures.Electrical3.Build},
		{kernelFabsim, figures.BenesFabric.Build},
	} {
		jobs = append(jobs, &job{
			name: k.kernel, seed: jobSeed(3, "transparency", len(jobs)), nodes: 64, net: k.build,
			pattern: uniform(64), rate: 0.2, warmup: 200, measure: 1500, hooks: allHooks,
		})
	}
	return jobs
}

// TestWrapperTransparency runs each kernel raw, behind the counting meter
// and behind the timing meter, and requires identical results.
func TestWrapperTransparency(t *testing.T) {
	for _, j := range transparencyJobs() {
		t.Run(j.name, func(t *testing.T) {
			raw := j.instance(j.hooks, false)
			want, err := raw.run(j, raw.net)
			if err != nil {
				t.Fatal(err)
			}
			for _, traced := range []bool{false, true} {
				in := j.instance(j.hooks, traced)
				m := &meter{}
				if traced {
					m.calls = &callTrace{}
				}
				net, kernel, err := wrap(in.net, m)
				if err != nil {
					t.Fatal(err)
				}
				if kernel != j.name {
					t.Errorf("kernel %q, want %q", kernel, j.name)
				}
				got, err := in.run(j, net)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("traced=%v: result differs from the raw network's", traced)
				}
				if m.steps < int64(j.warmup+j.measure) {
					t.Errorf("traced=%v: metered %d steps, want at least warmup+measure %d", traced, m.steps, j.warmup+j.measure)
				}
				if traced && int64(len(m.calls.stepNs)) != m.steps {
					t.Errorf("timed %d of %d steps", len(m.calls.stepNs), m.steps)
				}
			}
		})
	}
}

// TestWrapperForwardsOptionalInterfaces checks, per kernel, that the
// wrapper satisfies exactly the optional interfaces the harness
// type-asserts that the kernel itself satisfies.
func TestWrapperForwardsOptionalInterfaces(t *testing.T) {
	has := func(v any) map[string]bool {
		out := map[string]bool{}
		for _, probe := range []func(any) (string, bool){
			func(v any) (string, bool) { _, ok := v.(sim.LossReporting); return "LossReporting", ok },
			func(v any) (string, bool) { _, ok := v.(sim.CongestionReporting); return "CongestionReporting", ok },
			func(v any) (string, bool) { _, ok := v.(sim.Traceable); return "Traceable", ok },
			func(v any) (string, bool) { _, ok := v.(telemetry.Instrumentable); return "Instrumentable", ok },
			func(v any) (string, bool) { _, ok := v.(telemetry.ActiveSetReporter); return "ActiveSetReporter", ok },
			func(v any) (string, bool) { _, ok := v.(telemetry.InvariantChecker); return "InvariantChecker", ok },
		} {
			name, ok := probe(v)
			out[name] = ok
		}
		return out
	}
	seen := map[string]bool{}
	for _, net := range []sim.Network{
		core.New(core.DefaultConfig()),
		electrical.New(electrical.DefaultConfig()),
		fabsim.New(fabsim.DefaultConfig(figures.ShuffleFabric.Topo)),
	} {
		w, kernel, err := wrap(net, &meter{})
		if err != nil {
			t.Fatal(err)
		}
		rawHas, wrapHas := has(net), has(w)
		for name, ok := range rawHas {
			if wrapHas[name] != ok {
				t.Errorf("%s: kernel implements %s = %v, wrapper = %v", kernel, name, ok, wrapHas[name])
			}
			seen[name] = seen[name] || ok
		}
	}
	for name, ok := range seen {
		if !ok {
			t.Errorf("no kernel implements %s: the table does not exercise it", name)
		}
	}
}

// modelMetrics picks the model_* metrics, which must repeat exactly.
func modelMetrics(m map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range m {
		if strings.HasPrefix(k, "model_") {
			out[k] = v
		}
	}
	return out
}

// TestSeedDeterminism runs every workload twice at one seed and once at
// another. The same seed must repeat every digest and model metric; a
// different seed must change every job's inputs, hence its digest, and
// still pass every invariant. Without -short the first seed is the
// golden seed, so the committed digests are checked too.
func TestSeedDeterminism(t *testing.T) {
	seed, other := uint64(goldenSeed), uint64(2)
	if testing.Short() {
		seed = 7
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			run := func(s uint64) *e2eResult {
				r, err := runE2E(w, s, 1e-9, testing.Short())
				if err != nil {
					t.Fatal(err)
				}
				if f := r.check.failures; len(f) > 0 {
					t.Fatalf("seed %d: %d failed jobs, first: %s", s, len(f), f[0])
				}
				return r
			}
			a, b, c := run(seed), run(seed), run(other)
			if !reflect.DeepEqual(a.check.first, b.check.first) {
				t.Error("same seed, different digests")
			}
			am, _ := a.metrics()
			bm, _ := b.metrics()
			if ma, mb := modelMetrics(am), modelMetrics(bm); !reflect.DeepEqual(ma, mb) {
				t.Errorf("same seed, different model metrics: %v vs %v", ma, mb)
			}
			for name, d := range a.check.first {
				if c.check.first[name] == d {
					t.Errorf("%s: seeds %d and %d give the same digest", name, seed, other)
				}
			}
		})
	}
}

// TestTracedRun checks that the traced run measures every per-layer
// metric of every layer a workload runs (a positive value), reports 0 for
// the layers it does not run, and that the electrical phase table explains
// the sampled step time.
func TestTracedRun(t *testing.T) {
	// The layers (metric-name prefixes) each workload runs.
	runs := map[string][]string{
		"fig9-sweep":           {"electrical", "core", "sim", "traffic", "bench"},
		"splash-replay":        {"electrical", "core", "sim", "coherence", "bench"},
		"sparse-large":         {"electrical", "core", "sim", "traffic", "bench"},
		"instrumented-fabrics": {"core", "fabsim", "sim", "hooks", "traffic", "bench"},
	}
	// Light optical load may see no collision, hence no drop to retry.
	mayBeZero := map[string]bool{"core.drops": true, "core.retries": true}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			lr, err := runLayers(w, 5, true)
			if err != nil {
				t.Fatal(err)
			}
			if f := lr.check.failures; len(f) > 0 {
				t.Fatalf("%d failed jobs, first: %s", len(f), f[0])
			}
			running := map[string]bool{}
			for _, layer := range runs[w.name] {
				running[layer] = true
			}
			for _, m := range layerMetrics {
				v, layer := lr.metrics[m.name], strings.SplitN(m.name, ".", 2)[0]
				switch {
				case !running[layer] && v != 0:
					t.Errorf("%s = %v, but %s does not run here", m.name, v, layer)
				case m.name == "bench.trace_overhead_frac":
					// A difference of two host times: where tracing costs
					// less than their noise it may read just below 0.
					if !(v > -0.1 && v < 1) {
						t.Errorf("%s = %v, want within (-0.1, 1)", m.name, v)
					}
				case running[layer] && !(v > 0) && !mayBeZero[m.name]:
					t.Errorf("%s = %v, want > 0", m.name, v)
				}
			}
			if lr.electricalAttributed < 0.9 && running["electrical"] {
				t.Errorf("electrical phases explain %.2f of the sampled step time, want >= 0.9", lr.electricalAttributed)
			}
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the code's workload and
// metric lists in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q/%q in BENCHMARK.json, %q/%q in code", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(spec.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code", len(spec.EndToEnd), len(e2eMetrics))
	}
	for i, m := range spec.EndToEnd {
		want := e2eMetrics[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better() {
			t.Errorf("end-to-end %d: %+v in BENCHMARK.json, %+v in code", i, m, want)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Name != "setup_s" && m.Bound > spec.EndToEnd[0].Bound) {
			t.Errorf("%s: bound %v (setup_s must have the largest, all in (0, 0.25])", m.Name, m.Bound)
		}
	}
	if len(spec.PerLayer) != len(layerMetrics) || len(layerMetrics) != 53 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code, want 53", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range spec.PerLayer {
		if want := layerMetrics[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better() {
			t.Errorf("per-layer %d: %+v in BENCHMARK.json, %+v in code", i, m, want)
		}
	}
}

// TestQuartiles pins the quartile rule to Python's
// statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{4, 1}, 0.25, 2.5, 4.75}, // Python extrapolates beyond the data
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if v, _ := verdict([]float64{100, 101, 99}, []float64{100, 100, 101}, true, 0.1); v != "ok" {
		t.Errorf("steady equal sides: %s", v)
	}
	if v, _ := verdict([]float64{100, 101, 99}, []float64{80, 80, 81}, true, 0.1); v != "regression" {
		t.Errorf("20%% slower: %s", v)
	}
	if v, _ := verdict([]float64{50, 100, 150}, []float64{100, 100, 100}, true, 0.1); v != "unresolved" {
		t.Errorf("wide spread: %s", v)
	}
}

// TestCompareDigests checks that -compare catches a digest that differs
// between runs at one seed on the same side, and says so when the sides
// share no seed.
func TestCompareDigests(t *testing.T) {
	dir := t.TempDir()
	file := func(name string, seed uint64, d string) string {
		rep := report{Kind: "e2e", Manifest: manifest{Seed: seed}, Workloads: []workloadReport{{
			Workload: "fig9-sweep",
			Metrics:  map[string]value{"cycles_per_s": {Value: 100, Unit: "cycles/s"}},
			Digests:  map[string]string{"job": d},
		}}}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, rep); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a1, a2 := file("a1.json", 1, "aaaa"), file("a2.json", 1, "bbbb")
	b1, b2 := file("b1.json", 1, "aaaa"), file("b2.json", 2, "cccc")
	for _, c := range []struct {
		args     []string
		code     int
		contains string
	}{
		{[]string{a1, "--", b1}, 0, "1 jobs compared at shared seeds, all identical"},
		{[]string{a1, a2, "--", b1}, 1, "DIGEST MISMATCH within A, seed 1 fig9-sweep job: aaaa, but bbbb in " + a2},
		{[]string{a1, "--", b2}, 0, "WARNING, the two sides share no seed"},
	} {
		var out strings.Builder
		code, err := runCompare(c.args, "../BENCHMARK.json", &out)
		if err != nil {
			t.Fatal(err)
		}
		if code != c.code || !strings.Contains(out.String(), c.contains) {
			t.Errorf("%v: exit %d, want %d, and output\n%s\nwithout %q", c.args, code, c.code, out.String(), c.contains)
		}
	}
}

// TestGoldenUpdate rewrites testdata/golden.json with -update; it is the
// only way the goldens change.
func TestGoldenUpdate(t *testing.T) {
	if !*update {
		t.Skip("pass -update to rewrite " + goldenPath)
	}
	g := map[string]map[string]string{}
	for _, w := range workloads {
		// Set-up and one pass with the golden check off (short=false
		// sizes, but the checker built without goldens).
		jobs, _, err := w.prepare(goldenSeed, false)
		if err != nil {
			t.Fatal(err)
		}
		g[w.name] = map[string]string{}
		for _, j := range jobs {
			r := execute(j, j.hooks, false)
			if r.err != nil {
				t.Fatalf("%s %s: %v", w.name, j.name, r.err)
			}
			g[w.name][j.name] = r.digest
		}
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
