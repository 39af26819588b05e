// Command reproduce regenerates the paper's evaluation and the studies
// beyond it, and writes each table/figure to a results directory as both
// an aligned text table and CSV. It runs seven stages, in this order:
//
//	design       Figs. 4-8 and Tables 1-4 (analytic models, always full scale)
//	fig9         Fig. 9 latency tables, their p50/p95/p99 long form
//	             (fig9_<P>_tails) and ASCII charts (fig9_<P>_plot.txt)
//	splash       Figs. 10-11 (SPLASH2 speedup and power) and headline.txt
//	compare      the beyond-the-paper architecture comparison
//	sensitivity  the design-knob sensitivity sweep
//	faults       the fault-degradation sweep (faults.{txt,csv,json} and
//	             faults_<axis>_plot.txt)
//	congestion   the congestion-control sweep and the dead-link recovery
//	             study (congestion.{txt,csv,json}, congestion_recovery.txt
//	             and ASCII plots)
//
// -only selects a comma list of stages; empty runs all seven. The
// simulation grids fan out over a worker pool; results are bit-identical
// for any worker count, and the JSON reports hold no host- or
// time-dependent field. -quick runs faults at 50 warmup and 200 measure
// cycles with one trial, and congestion at 100 and 800 with a 3600-cycle
// recovery run. -trace-out, -metrics-out and -heatmap deep-dive every
// architecture of the comparison at uniform 0.10 after the stages.
//
// Usage:
//
//	reproduce -out results/              # full scale (~40 s on 2 vCPUs)
//	reproduce -out results/ -quick       # reduced scale (~11 s on 2 vCPUs)
//	reproduce -out results/ -only fig9   # one stage
//	reproduce -out results/ -parallel 4  # explicit worker count (0 = all cores)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"phastlane/internal/cliflags"
	"phastlane/internal/exp"
	"phastlane/internal/figures"
	"phastlane/internal/stats"
	"phastlane/internal/telemetry"
	"phastlane/internal/traffic"
)

// stages names the stages in the order they always run.
var stages = []string{"design", "fig9", "splash", "compare", "sensitivity", "faults", "congestion"}

// parseOnly turns the -only list into the selected stages in run order;
// an empty list selects every stage.
func parseOnly(list string) ([]string, error) {
	if list == "" {
		return stages, nil
	}
	want := map[string]bool{}
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if !slices.Contains(stages, name) {
			return nil, fmt.Errorf("-only: unknown stage %q (want a comma list of %s)", name, strings.Join(stages, ", "))
		}
		want[name] = true
	}
	var out []string
	for _, s := range stages {
		if want[s] {
			out = append(out, s)
		}
	}
	return out, nil
}

func main() {
	out := flag.String("out", "results", "output directory")
	only := flag.String("only", "", "comma list of stages to run: "+strings.Join(stages, ", ")+" (empty = all)")
	quick := flag.Bool("quick", false, "reduced-scale run")
	seed := cliflags.Seed(flag.CommandLine)
	parallel := flag.Int("parallel", 0, "worker pool size (0 = one per core)")
	quiet := flag.Bool("quiet", false, "suppress progress log lines")
	traceOut := flag.Bool("trace-out", false, "write a Perfetto trace of the inspection stage to <out>/inspect_trace.json")
	metricsOut := flag.Bool("metrics-out", false, "write per-node event matrices to <out>/inspect_metrics.csv")
	heatmap := flag.Bool("heatmap", false, "print link-utilization and drop heatmaps for the inspection stage")
	telemetryAddr := cliflags.TelemetryAddr(flag.CommandLine)
	flag.Parse()
	selected, err := parseOnly(*only)
	if err != nil {
		fail(err)
	}
	if _, err := telemetry.Start(*telemetryAddr, nil); err != nil {
		fail(err)
	}

	// engine is the worker pool a stage's grid fans out over; label
	// names the stage in progress lines.
	engine := func(label string) exp.Options {
		o := exp.Options{Workers: *parallel}
		if !*quiet {
			o.Progress = exp.Logger(os.Stderr, label, 2*time.Second)
		}
		return o
	}
	start := time.Now()
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fail(err)
	}
	save := func(file, text string) {
		if err := os.WriteFile(filepath.Join(*out, file), []byte(text), 0o644); err != nil {
			fail(err)
		}
	}
	// write saves a table as <name>.txt and <name>.csv, and a plot as
	// <name>.txt.
	write := func(name string, v fmt.Stringer) {
		save(name+".txt", v.String())
		if t, ok := v.(*stats.Table); ok {
			save(name+".csv", t.CSV())
		}
		fmt.Printf("wrote %s (%.1fs elapsed)\n", name, time.Since(start).Seconds())
	}
	// writeJSON saves a study report as indented <name>.json.
	writeJSON := func(name string, report any) {
		doc, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fail(err)
		}
		save(name+".json", string(doc)+"\n")
		fmt.Printf("wrote %s.json (%.1fs elapsed)\n", name, time.Since(start).Seconds())
	}

	for _, stage := range selected {
		switch stage {
		case "design":
			write("fig4_scaling", figures.Fig4())
			write("fig5_critical_paths", figures.Fig5())
			write("fig6_max_hops", figures.Fig6())
			write("fig7_peak_power", figures.Fig7())
			write("fig8_area", figures.Fig8())
			write("table1_optical_config", figures.Table1())
			write("table2_electrical_config", figures.Table2())
			write("table3_benchmarks", figures.Table3())
			write("table4_cache_config", figures.Table4())

		case "fig9":
			f9 := figures.Fig9Opts{Seed: *seed}
			if *quick {
				f9.Rates = []float64{0.02, 0.10, 0.20}
				f9.Warmup, f9.Measure = 300, 1000
			}
			for _, res := range figures.Fig9(f9, engine("fig9")) {
				write("fig9_"+res.Pattern, figures.Fig9Table(res))
				write("fig9_"+res.Pattern+"_tails", figures.Fig9TailTable(res))
				write("fig9_"+res.Pattern+"_plot", figures.Fig9Plot(res))
			}

		case "splash":
			so := figures.SplashOpts{Seed: *seed}
			if *quick {
				so.Messages = 5000
			}
			rows, err := figures.Splash(so, engine("splash"))
			if err != nil {
				fail(err)
			}
			write("fig10_speedup", figures.Fig10Table(rows))
			write("fig11_power", figures.Fig11Table(rows))
			h := figures.Summarise(rows, "Optical4")
			headline := fmt.Sprintf("Optical4 headline: %.2fx geomean network speedup, %.0f%% lower network power (paper: 2X, 80%%)\n",
				h.GeoMeanSpeedup, h.PowerReduction*100)
			for _, cfg := range []string{"Optical4", "Optical5", "Optical8"} {
				h := figures.Summarise(rows, cfg)
				headline += fmt.Sprintf("%-9s geomean network speedup %.2fx, network power %+.0f%% vs Electrical3\n",
					cfg, h.GeoMeanSpeedup, -h.PowerReduction*100)
			}
			save("headline.txt", headline)
			fmt.Print(headline)

		case "compare":
			co := figures.CompareOpts{Seed: *seed}
			if *quick {
				co.Messages, co.Measure = 3000, 1000
			}
			cmp, err := figures.Compare(co, engine("compare"))
			if err != nil {
				fail(err)
			}
			write("comparison_architectures", figures.CompareTable(cmp, nil))

		case "sensitivity":
			sv := figures.SensitivityOpts{Seed: *seed, Benchmark: "Barnes"}
			if *quick {
				sv.Messages = 3000
			}
			pts, err := figures.Sensitivity(sv, engine("sensitivity"))
			if err != nil {
				fail(err)
			}
			write("sensitivity_knobs", figures.SensitivityTable(pts, sv.Benchmark))

		case "faults":
			do := figures.DegradationOpts{Warmup: 300, Measure: 1500, Trials: 2, Seed: *seed}
			if *quick {
				do.Warmup, do.Measure, do.Trials = 50, 200, 1
			}
			pts := figures.Degradation(do, engine("faults"))
			write("faults", figures.DegradationTable(pts))
			for _, axis := range []string{"dead-links", "stuck-routers", "corruption"} {
				write("faults_"+axis+"_plot", figures.DegradationPlot(axis, pts))
			}
			writeJSON("faults", faultsReport{
				Rate: figures.DegradationRate, Warmup: do.Warmup, Measure: do.Measure,
				Trials: do.Trials, Seed: do.Seed, Points: pts,
			})

		case "congestion":
			gov := figures.GovernedOpts{Warmup: 300, Measure: 2000, Seed: *seed}
			rec := figures.RecoveryOpts{Measure: 6000, Seed: *seed}
			if *quick {
				gov.Warmup, gov.Measure, rec.Measure = 100, 800, 3600
			}
			pts := figures.Governed(gov, engine("congestion"))
			write("congestion", figures.GovernedTable(pts))
			for _, c := range figures.GovernedConfigs {
				for _, p := range figures.GovernedPatterns {
					write("congestion_"+c+"_"+p+"_plot", figures.GovernedPlot(c, p, pts))
					write("congestion_"+c+"_"+p+"_p99_plot", figures.GovernedTailPlot(c, p, pts))
				}
			}
			recovery := figures.GovernedRecovery(rec)
			summary := figures.RecoverySummary(recovery)
			save("congestion_recovery.txt", summary)
			fmt.Print(summary)
			write("congestion_recovery_plot", figures.RecoveryPlot(recovery))
			writeJSON("congestion", congestionReport{
				Configs: figures.GovernedConfigs, Patterns: figures.GovernedPatterns,
				Rates: figures.GovernedRates, StaticRate: figures.StaticRate,
				Warmup: gov.Warmup, Measure: gov.Measure, Seed: gov.Seed,
				Points: pts, Recovery: recovery,
			})
		}
	}

	// Observability deep dive: every architecture of the comparison on
	// uniform traffic at 0.10 packets/node/cycle, dumped as trace +
	// matrices + series. The related-work networks carry no event
	// instrumentation, so only their time series fill; the bundle says
	// so per network.
	bundle := figures.BundleOpts{Heatmap: *heatmap}
	if *traceOut {
		bundle.TracePath = filepath.Join(*out, "inspect_trace.json")
	}
	if *metricsOut {
		bundle.MetricsPath = filepath.Join(*out, "inspect_metrics.csv")
		bundle.SeriesPath = filepath.Join(*out, "inspect_series.csv")
	}
	if bundle.Enabled() {
		warmup, measure := 1000, 4000
		if *quick {
			warmup, measure = 300, 1000
		}
		var inspects []figures.InspectOpts
		for _, cfg := range figures.CompareConfigs() {
			inspects = append(inspects, figures.InspectOpts{
				Name: cfg.Name, Build: cfg.Build, Width: 8, Height: 8, Topo: cfg.Topo,
				Pattern: traffic.UniformRandom(64, *seed), Rate: 0.10,
				Warmup: warmup, Measure: measure, Seed: *seed,
			})
		}
		if _, err := figures.InspectBundle(inspects, exp.Options{Workers: *parallel}, bundle, os.Stdout); err != nil {
			fail(err)
		}
	}
	fmt.Printf("reproduce: done in %.1fs\n", time.Since(start).Seconds())
}

// faultsReport is faults.json: the degradation sweep's inputs and points.
type faultsReport struct {
	Rate    float64                    `json:"offered_rate"`
	Warmup  int                        `json:"warmup_cycles"`
	Measure int                        `json:"measure_cycles"`
	Trials  int                        `json:"trials_per_point"`
	Seed    int64                      `json:"seed"`
	Points  []figures.DegradationPoint `json:"points"`
}

// congestionReport is congestion.json: the governed sweep's inputs and
// points, and the recovery study.
type congestionReport struct {
	Configs    []string                `json:"configs"`
	Patterns   []string                `json:"patterns"`
	Rates      []float64               `json:"rates"`
	StaticRate float64                 `json:"static_rate"`
	Warmup     int                     `json:"warmup_cycles"`
	Measure    int                     `json:"measure_cycles"`
	Seed       int64                   `json:"seed"`
	Points     []figures.GovernedPoint `json:"points"`
	Recovery   figures.RecoveryResult  `json:"recovery"`
}

func fail(err error) { cliflags.Fail("reproduce", err) }
