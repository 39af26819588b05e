// Command inspect replays one (configuration, rate) point with the full
// observability bundle attached and dumps everything it sees: a summary
// table, per-node event matrices, cycle-windowed time series, ASCII
// link-utilization and drop heatmaps, and a Perfetto-compatible event
// trace that loads in ui.perfetto.dev or chrome://tracing. It is the deep
// dive behind a single point of a cmd/sweep curve.
//
// Usage:
//
//	inspect                                  # both networks, uniform 0.10
//	inspect -net optical -rate 0.3 -heatmap  # one network, past the knee
//	inspect -trace-out trace.json            # Perfetto trace of both
//	inspect -metrics-out m.csv -series-out s.csv
//	inspect -width 4 -height 4 -measure 500  # small mesh, short run
//	inspect -topo benes -width 8 -height 1   # deep-dive an indirect fabric
//	inspect -telemetry-addr :9090            # live metrics + pprof endpoint
//	inspect -why -rate 0.3                   # per-packet tail-blame report
//	inspect -why -why-out report.json        # JSON report; exit 1 unless
//	                                         # 95% attributed (-min-attrib)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"phastlane/internal/cliflags"
	"phastlane/internal/core"
	"phastlane/internal/electrical"
	"phastlane/internal/exp"
	"phastlane/internal/figures"
	"phastlane/internal/provenance"
	"phastlane/internal/sim"
	"phastlane/internal/telemetry"
)

func main() {
	netFlag := flag.String("net", "both", "network to inspect: both, optical, electrical (mesh only)")
	geo := cliflags.RegisterGeometry(flag.CommandLine)
	pattern := flag.String("pattern", "Uniform", "traffic pattern (Uniform, BitComp, BitRev, Shuffle, Transpose)")
	rate := flag.Float64("rate", 0.10, "injection rate (packets/node/cycle)")
	warmup := flag.Int("warmup", 500, "warmup cycles")
	measure := flag.Int("measure", 2000, "measurement cycles")
	window := flag.Int64("window", 0, "sampler bin width in cycles (0 = default)")
	seed := cliflags.Seed(flag.CommandLine)
	hops := flag.Int("hops", 4, "optical MaxHops (4, 5 or 8)")
	buffers := flag.Int("buffers", 10, "optical buffer entries (-1 = infinite)")
	delay := flag.Int("delay", 3, "electrical router delay in cycles (2 or 3)")
	traceOut := flag.String("trace-out", "", "write Perfetto trace-event JSON to this file")
	metricsOut := flag.String("metrics-out", "", "write per-node event matrices as CSV to this file")
	seriesOut := flag.String("series-out", "", "write cycle-windowed time series as CSV to this file")
	heatmap := flag.Bool("heatmap", false, "print link-utilization and drop heatmaps")
	telemetryAddr := cliflags.TelemetryAddr(flag.CommandLine)
	parallel := flag.Int("parallel", 0, "worker pool size (0 = one per core)")
	why := provenance.RegisterFlags(flag.CommandLine)
	whyOut := flag.String("why-out", "", "with -why, write the tail-blame reports as a JSON array to this file")
	minAttrib := flag.Float64("min-attrib", 0.95,
		"with -why, fail unless every sampled packet's named stages explain at least this latency fraction")
	flag.Parse()
	why.Clamp()
	if !why.Why {
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "why-out" || f.Name == "min-attrib" {
				fail(fmt.Errorf("-%s applies with -why only", f.Name))
			}
		})
	}

	w, h := geo.Width, geo.Height
	var opts []figures.InspectOpts
	add := func(name string, build func(seed int64) sim.Network) {
		p, err := figures.PatternByName(*pattern, w*h, *seed)
		if err != nil {
			fail(err)
		}
		opts = append(opts, figures.InspectOpts{
			Name: name, Build: build, Width: w, Height: h,
			Pattern: p, Rate: *rate,
			Warmup: *warmup, Measure: *measure,
			Window: *window, Seed: *seed,
		})
	}
	if !geo.IsMesh() {
		// Indirect fabrics deep-dive through the generic fabric simulator;
		// -net selects among the mesh models only.
		tp, err := geo.Build()
		if err != nil {
			fail(err)
		}
		add(geo.Topo, func(seed int64) sim.Network {
			net, err := geo.FabricNetwork(0, 0, seed)
			if err != nil {
				fail(err)
			}
			return net
		})
		opts[0].Topo = tp
	} else {
		if *netFlag == "both" || *netFlag == "optical" {
			add("optical", func(seed int64) sim.Network {
				cfg := core.DefaultConfig()
				cfg.Width, cfg.Height = w, h
				cfg.MaxHops = *hops
				cfg.BufferEntries = *buffers
				cfg.Seed = seed
				if err := cfg.Validate(); err != nil {
					fail(err)
				}
				return core.New(cfg)
			})
		}
		if *netFlag == "both" || *netFlag == "electrical" {
			add("electrical", func(seed int64) sim.Network {
				cfg := electrical.DefaultConfig()
				cfg.Width, cfg.Height = w, h
				cfg.RouterDelay = *delay
				cfg.Seed = seed
				if err := cfg.Validate(); err != nil {
					fail(err)
				}
				return electrical.New(cfg)
			})
		}
	}
	if len(opts) == 0 {
		fail(fmt.Errorf("unknown -net %q (want both, optical or electrical)", *netFlag))
	}

	// CPU profiles now come from the shared telemetry endpoint:
	// curl http://<addr>/debug/pprof/profile?seconds=10 during the replay.
	reg, err := telemetry.Start(*telemetryAddr, nil)
	if err != nil {
		fail(err)
	}
	if why.Why {
		// Pre-build the trackers so live tail quantiles land on the
		// telemetry endpoint while the replay runs.
		for i := range opts {
			o := &opts[i]
			pc := provenance.Config{
				K: why.Sample, Seed: o.Seed, Width: o.Width, Height: o.Height,
			}
			if o.Topo != nil {
				pc.Label = o.Topo.NodeLabel
			}
			o.Prov = provenance.New(pc)
			if *telemetryAddr != "" {
				o.Prov.Register(reg, o.Name)
			}
		}
	}

	results, err := figures.InspectBundle(opts, exp.Options{Workers: *parallel}, figures.BundleOpts{
		TracePath: *traceOut, MetricsPath: *metricsOut, SeriesPath: *seriesOut,
		Heatmap: *heatmap, WhyTop: why.Top,
	}, os.Stdout)
	if err != nil {
		fail(err)
	}
	if !why.Why {
		return
	}

	var reports []*provenance.Report
	failed := false
	for i := range results {
		rep := results[i].Prov.Report(results[i].Name)
		reports = append(reports, rep)
		if rep.Cohort == 0 {
			fmt.Fprintf(os.Stderr, "inspect: %s completed no packets\n", rep.Name)
			failed = true
			continue
		}
		if rep.AttributionMin < *minAttrib {
			fmt.Fprintf(os.Stderr, "inspect: %s attribution min %.3f below -min-attrib %.3f\n",
				rep.Name, rep.AttributionMin, *minAttrib)
			failed = true
		}
	}
	if *whyOut != "" {
		data, err := json.MarshalIndent(reports, "", "  ")
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(*whyOut, append(data, '\n'), 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s (%d reports)\n", *whyOut, len(reports))
	}
	if failed {
		os.Exit(1)
	}
}

func fail(err error) { cliflags.Fail("inspect", err) }
