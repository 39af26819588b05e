// Command phastlane runs one network once: the Phastlane optical mesh
// (-net optical, the default), the Table 2 electrical baseline (-net
// electrical), or with -topo benes or -topo shufflecast the generic
// fabric simulator. Traffic is a synthetic pattern at a fixed injection
// rate or a tracegen trace file (mesh only). It reports latency,
// throughput, drops and power.
//
// Every hook attaches to that one run, is built only when its flag is
// set, and composes with the others: a -faults plan (mesh only), the -cc
// governor (synthetic traffic only), telemetry, the deep-dive outputs
// (-trace-out Perfetto trace, -metrics-out per-node matrices, -series-out
// time series, -heatmap) and the -why tail-blame report, whose
// -min-attrib gate exits 1 after every output is written.
//
// -hops, -buffers and -retry-limit apply to -net optical on the mesh
// only; -delay applies to -net electrical only, on the mesh and on
// fabrics alike. Each exits 1 when set where no network reads it, as
// -pattern, -rate, -warmup and -measure do under -trace.
//
// Usage:
//
//	phastlane -pattern Uniform -rate 0.1
//	phastlane -pattern Transpose -rate 0.2 -hops 5 -buffers 32
//	phastlane -trace ocean.trace
//	phastlane -net electrical -delay 2 -trace ocean.trace
//	phastlane -topo benes -width 8 -height 1 -rate 0.1
//	phastlane -net electrical -topo shufflecast -width 8 -height 1 -arity 2
//	phastlane -rate 0.3 -heatmap -trace-out trace.json -metrics-out m.csv
//	phastlane -why -why-out report.json -pattern BitRev -rate 0.15 \
//	    -net electrical -delay 2            # one Fig. 9 point's tail
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"phastlane/internal/cliflags"
	"phastlane/internal/core"
	"phastlane/internal/electrical"
	"phastlane/internal/fault"
	"phastlane/internal/figures"
	"phastlane/internal/obs"
	"phastlane/internal/packet"
	"phastlane/internal/photonic"
	"phastlane/internal/provenance"
	"phastlane/internal/sim"
	"phastlane/internal/telemetry"
	"phastlane/internal/topo"
	"phastlane/internal/trace"
)

func main() { run(os.Args[1:], os.Stdout) }

// run is the command: it parses args, runs the network and writes the
// report to stdout. Errors exit 1 through cliflags.Fail.
func run(args []string, stdout io.Writer) {
	fs := flag.NewFlagSet("phastlane", flag.ExitOnError)
	netName := fs.String("net", "optical", "network: optical (Phastlane) or electrical (Table 2 baseline)")
	patternName := fs.String("pattern", "Uniform", "pattern: Uniform, BitComp, BitRev, Shuffle, Transpose")
	rate := fs.Float64("rate", 0.05, "injection rate (packets/node/cycle)")
	tracePath := fs.String("trace", "", "replay a trace file instead of synthetic traffic")
	geo := cliflags.RegisterGeometry(fs)
	nets := cliflags.RegisterNets(fs)
	warmup := fs.Int("warmup", 1000, "warmup cycles (synthetic traffic)")
	measure := fs.Int("measure", 4000, "measurement cycles (synthetic traffic)")
	window := fs.Int64("window", 0, "time-series bin width in cycles (0 = default)")
	seed := cliflags.Seed(fs)
	faultSpec := fs.String("faults", "", "fault plan: spec string, inline JSON, or @file")
	retryLimit := fs.Int("retry-limit", 0, "optical: drop-retry budget per packet (0 = unlimited)")
	lossTimeout := fs.Int64("loss-timeout", 0, "cycles before an undelivered packet is declared lost (0 = never)")
	ccFlags := cliflags.RegisterCC(fs)
	telFlags := telemetry.RegisterFlags(fs)
	traceOut := fs.String("trace-out", "", "write Perfetto trace-event JSON to this file")
	metricsOut := fs.String("metrics-out", "", "write per-node event matrices as CSV to this file")
	seriesOut := fs.String("series-out", "", "write cycle-windowed time series as CSV to this file")
	heatmap := fs.Bool("heatmap", false, "print link-utilization and drop heatmaps")
	why := provenance.RegisterFlags(fs)
	whyOut := fs.String("why-out", "", "with -why, write the tail-blame report as a JSON array to this file")
	minAttrib := fs.Float64("min-attrib", 0.95,
		"with -why, fail unless every sampled packet's named stages explain at least this latency fraction")
	fs.Parse(args) // ExitOnError: a bad flag exits 2
	cliflags.Rates("phastlane", "rate", *rate)
	cliflags.Counts("phastlane", fs, "warmup", "measure", "window", "delay")
	why.Clamp()
	if !why.Why {
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "why-out" || f.Name == "min-attrib" {
				fail(fmt.Errorf("-%s applies with -why only", f.Name))
			}
		})
	}
	if *netName != "optical" && *netName != "electrical" {
		fail(fmt.Errorf("unknown -net %q (want optical or electrical)", *netName))
	}
	if err := nets.Check(fs, *netName == "optical" && geo.IsMesh(), *netName == "electrical"); err != nil {
		fail(err)
	}
	if *tracePath != "" {
		if ccFlags.Enabled {
			fail(fmt.Errorf("-cc applies to synthetic-traffic runs, not -trace replay"))
		}
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "pattern", "rate", "warmup", "measure":
				fail(fmt.Errorf("-%s applies to synthetic-traffic runs, not -trace replay", f.Name))
			}
		})
	}

	// name labels the run in traces, tables and blame reports; tp, on a
	// fabric, labels its nodes.
	name := *netName
	var tp topo.Topology
	var net sim.Network
	if geo.IsMesh() {
		var plan *fault.Plan
		if *faultSpec != "" {
			p, err := cliflags.ParseFaultArg(*faultSpec)
			if err != nil {
				fail(err)
			}
			plan = p
		}
		if *netName == "optical" {
			cfg := nets.Optical(geo, *seed)
			cfg.RetryLimit = *retryLimit
			cfg.LossTimeout = *lossTimeout
			cfg.Faults = plan
			if err := cfg.Validate(); err != nil {
				fail(err)
			}
			net = core.New(cfg)
		} else {
			cfg := nets.Electrical(geo, *seed)
			cfg.LossTimeout = *lossTimeout
			cfg.Faults = plan
			if err := cfg.Validate(); err != nil {
				fail(err)
			}
			net = electrical.New(cfg)
		}
	} else {
		if *tracePath != "" {
			fail(geo.RequireMesh("-trace replay"))
		}
		if *faultSpec != "" {
			fail(geo.RequireMesh("-faults"))
		}
		routerDelay := 0 // the fabric simulator's default
		if *netName == "electrical" {
			routerDelay = nets.Delay
		}
		fnet, err := geo.FabricNetwork(routerDelay, *lossTimeout, *seed)
		if err != nil {
			fail(err)
		}
		net, tp, name = fnet, fnet.Topology(), geo.Topo
		fmt.Fprintf(stdout, "fabric %s: %d endpoints, %d nodes\n",
			geo.Topo, tp.Endpoints(), tp.Nodes())
	}

	// Each hook stays nil, and costs nothing, unless a flag asks for it.
	tel, err := telFlags.StartRun()
	if err != nil {
		fail(err)
	}
	var prov *provenance.Tracker
	if why.Why {
		pc := provenance.Config{K: why.Sample, Seed: *seed, Width: geo.Width, Height: geo.Height}
		if tp != nil {
			pc.Label = tp.NodeLabel
		}
		prov = provenance.New(pc)
		if tel != nil {
			prov.Register(tel.Reg, name)
		}
	}
	outputs := figures.BundleOpts{
		TracePath: *traceOut, MetricsPath: *metricsOut, SeriesPath: *seriesOut,
		Heatmap: *heatmap, WhyTop: why.Top,
	}
	point := []figures.InspectOpts{{Name: name, Width: geo.Width, Height: geo.Height, Topo: tp, Window: *window}}
	bundle, err := outputs.Open(point)
	if err != nil {
		fail(err)
	}
	var col *obs.Collector
	if outputs.Enabled() {
		col = point[0].Collector()
	}

	var res sim.Result
	if *tracePath != "" {
		f, err := os.Open(*tracePath)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		tr, err := trace.Read(f)
		if err != nil {
			fail(err)
		}
		res, err = sim.RunTrace(net, tr, sim.ReplayConfig{Obs: col, Telemetry: tel, Prov: prov})
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(stdout, "trace: %d messages, makespan %d cycles\n", len(tr.Messages), res.Makespan)
		for op := packet.Op(0); op < packet.NumOps; op++ {
			if l := res.LatencyByOp[op]; l != nil {
				fmt.Fprintf(stdout, "  %-10s %6d msgs, avg latency %6.1f cycles\n", op, l.Count(), l.Mean())
			}
		}
	} else {
		pattern, err := figures.PatternByName(*patternName, net.Nodes(), *seed)
		if err != nil {
			fail(err)
		}
		gov, err := ccFlags.Governor(net.Nodes(), *seed)
		if err != nil {
			fail(err)
		}
		if gov != nil && tel != nil {
			gov.Register(tel.Reg)
		}
		res = sim.RunRate(net, sim.RateConfig{
			Pattern: pattern, Rate: *rate, Warmup: *warmup, Measure: *measure, Seed: *seed,
			Obs: col, Telemetry: tel, Prov: prov, CC: gov,
		})
		fmt.Fprintf(stdout, "pattern %s at rate %.3f over %d cycles\n", *patternName, *rate, res.Run.Cycles)
		if gov != nil {
			fmt.Fprintf(stdout, "cc: mean admitted rate %.4f pkts/node/cycle; %d injections paced\n",
				gov.MeanRate(), res.Paced)
		}
	}
	report(stdout, res, net.Nodes())
	if err := telFlags.Finish(tel, stdout); err != nil {
		fail(err)
	}

	result := figures.InspectResult{Name: name, Run: res, Prov: prov}
	if col != nil {
		_, result.Traced = net.(obs.Traceable)
		result.Metrics, result.Sampler = col.Metrics, col.Sampler
	}
	if err := bundle.Write([]figures.InspectResult{result}, stdout); err != nil {
		fail(err)
	}
	if prov == nil {
		return
	}
	// The -why gate exits 1 after every output, -why-out included, is
	// written.
	rep := prov.Report(name)
	if *whyOut != "" {
		data, err := json.MarshalIndent([]*provenance.Report{rep}, "", "  ")
		if err == nil {
			err = os.WriteFile(*whyOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(stdout, "wrote %s\n", *whyOut)
	}
	switch {
	case rep.Cohort == 0:
		fail(fmt.Errorf("%s completed no packets", name))
	case rep.AttributionMin < *minAttrib:
		fail(fmt.Errorf("%s attribution min %.3f below -min-attrib %.3f", name, rep.AttributionMin, *minAttrib))
	}
}

func report(w io.Writer, res sim.Result, nodes int) {
	fmt.Fprintf(w, "delivered %d messages; avg latency %.2f cycles (p99 %.0f, max %.0f)\n",
		res.Run.Delivered, res.Run.Latency.Mean(), res.Run.Latency.Percentile(99), res.Run.Latency.Max())
	fmt.Fprintf(w, "throughput %.4f pkts/node/cycle; drops %d; retries %d; buffered %d\n",
		res.Run.ThroughputPerNode(nodes), res.Run.Drops, res.Run.Retries, res.Run.BufferedPackets)
	if res.Lost > 0 || res.Run.Unreachable > 0 || res.Run.Corrupt > 0 {
		fmt.Fprintf(w, "lost %d; unreachable probes %d; corrupted hops %d; unresolved %d\n",
			res.Lost, res.Run.Unreachable, res.Run.Corrupt, res.Unresolved)
	}
	fmt.Fprintf(w, "network power %.2f W (optical %.2f W, electrical %.2f W, leakage %.2f W)\n",
		res.Run.PowerW(photonic.DefaultClockGHz),
		powerShare(res, res.Run.OpticalEnergyPJ),
		powerShare(res, res.Run.ElectricalEnergyPJ),
		powerShare(res, res.Run.LeakagePJ))
	if res.Saturated {
		fmt.Fprintln(w, "NOTE: the network saturated at this load")
	}
}

func powerShare(res sim.Result, pj float64) float64 {
	total := res.Run.TotalEnergyPJ()
	if total == 0 {
		return 0
	}
	return res.Run.PowerW(photonic.DefaultClockGHz) * pj / total
}

func fail(err error) { cliflags.Fail("phastlane", err) }
