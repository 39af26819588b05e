// Command phastlane runs one network simulation, the Phastlane optical
// mesh (-net optical, the default) or the Table 2 electrical baseline
// (-net electrical), and reports latency, throughput, drops and power.
// Traffic is either a synthetic pattern at a fixed injection rate or a
// trace file produced by tracegen. With -topo benes or -topo shufflecast
// the run uses the generic fabric simulator over that topology instead of
// a mesh model (synthetic traffic only).
//
// -hops, -buffers and -retry-limit apply to -net optical only; -delay
// applies to -net electrical only, on the mesh and on fabrics alike.
//
// Usage:
//
//	phastlane -traffic Uniform -rate 0.1
//	phastlane -traffic Transpose -rate 0.2 -hops 5 -buffers 32
//	phastlane -trace ocean.trace
//	phastlane -net electrical -delay 2 -trace ocean.trace
//	phastlane -topo benes -width 8 -height 1 -rate 0.1
//	phastlane -net electrical -topo shufflecast -width 8 -height 1 -arity 2
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"phastlane/internal/cliflags"
	"phastlane/internal/core"
	"phastlane/internal/electrical"
	"phastlane/internal/fault"
	"phastlane/internal/figures"
	"phastlane/internal/packet"
	"phastlane/internal/photonic"
	"phastlane/internal/sim"
	"phastlane/internal/telemetry"
	"phastlane/internal/trace"
)

func main() {
	netName := flag.String("net", "optical", "network: optical (Phastlane) or electrical (Table 2 baseline)")
	trafficName := flag.String("traffic", "Uniform", "pattern: Uniform, BitComp, BitRev, Shuffle, Transpose")
	rate := flag.Float64("rate", 0.05, "injection rate (packets/node/cycle)")
	tracePath := flag.String("trace", "", "replay a trace file instead of synthetic traffic")
	hops := flag.Int("hops", 4, "optical: max hops per cycle (4, 5, or 8)")
	geo := cliflags.RegisterGeometry(flag.CommandLine)
	buffers := flag.Int("buffers", 10, "optical: electrical buffer entries per port (-1 = infinite)")
	delay := flag.Int("delay", 3, "electrical: per-hop router delay in cycles (mesh: 2 or 3)")
	measure := flag.Int("measure", 4000, "measurement cycles (synthetic traffic)")
	seed := cliflags.Seed(flag.CommandLine)
	faultSpec := flag.String("faults", "", "fault plan: spec string, inline JSON, or @file")
	retryLimit := flag.Int("retry-limit", 0, "optical: drop-retry budget per packet (0 = unlimited)")
	lossTimeout := flag.Int64("loss-timeout", 0, "cycles before an undelivered packet is declared lost (0 = never)")
	ccFlags := cliflags.RegisterCC(flag.CommandLine)
	telFlags := telemetry.RegisterFlags(flag.CommandLine)
	flag.Parse()

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	switch *netName {
	case "optical":
		if set["delay"] {
			fail(errors.New("-delay applies to -net electrical only"))
		}
	case "electrical":
		for _, name := range []string{"hops", "buffers", "retry-limit"} {
			if set[name] {
				fail(fmt.Errorf("-%s applies to -net optical only", name))
			}
		}
	default:
		fail(fmt.Errorf("unknown -net %q (want optical or electrical)", *netName))
	}

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
			cfg := core.DefaultConfig()
			cfg.Width, cfg.Height = geo.Width, geo.Height
			cfg.MaxHops = *hops
			cfg.BufferEntries = *buffers
			cfg.Seed = *seed
			cfg.RetryLimit = *retryLimit
			cfg.LossTimeout = *lossTimeout
			cfg.Faults = plan
			if err := cfg.Validate(); err != nil {
				fail(err)
			}
			net = core.New(cfg)
		} else {
			cfg := electrical.DefaultConfig()
			cfg.Width, cfg.Height = geo.Width, geo.Height
			cfg.RouterDelay = *delay
			cfg.Seed = *seed
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
		if *retryLimit != 0 {
			fail(geo.RequireMesh("-retry-limit (fabric simulators have no drop/retry protocol)"))
		}
		routerDelay := 0 // the fabric simulator's default
		if *netName == "electrical" {
			routerDelay = *delay
		}
		fnet, err := geo.FabricNetwork(routerDelay, *lossTimeout, *seed)
		if err != nil {
			fail(err)
		}
		net = fnet
		fmt.Printf("fabric %s: %d endpoints, %d nodes\n",
			geo.Topo, fnet.Topology().Endpoints(), fnet.Topology().Nodes())
	}
	tel, err := telFlags.StartRun()
	if err != nil {
		fail(err)
	}

	var res sim.Result
	if *tracePath != "" {
		if ccFlags.Enabled {
			fail(fmt.Errorf("-cc applies to synthetic-traffic runs, not -trace replay"))
		}
		f, err := os.Open(*tracePath)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		tr, err := trace.Read(f)
		if err != nil {
			fail(err)
		}
		res, err = sim.RunTrace(net, tr, sim.ReplayConfig{Telemetry: tel})
		if err != nil {
			fail(err)
		}
		fmt.Printf("trace: %d messages, makespan %d cycles\n", len(tr.Messages), res.Makespan)
		for op := packet.Op(0); op < packet.NumOps; op++ {
			if l := res.LatencyByOp[op]; l != nil {
				fmt.Printf("  %-10s %6d msgs, avg latency %6.1f cycles\n", op, l.Count(), l.Mean())
			}
		}
	} else {
		// Uniform traffic keeps its fixed seed 7, independent of -seed.
		pattern, err := figures.PatternByName(*trafficName, net.Nodes(), 7)
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
			Pattern: pattern, Rate: *rate, Measure: *measure, Seed: *seed,
			Telemetry: tel, CC: gov,
		})
		fmt.Printf("pattern %s at rate %.3f over %d cycles\n", *trafficName, *rate, *measure)
		if gov != nil {
			fmt.Printf("cc: mean admitted rate %.4f pkts/node/cycle; %d injections paced\n",
				gov.MeanRate(), res.Paced)
		}
	}
	report(res, net.Nodes())
	if err := telFlags.Finish(tel, os.Stdout); err != nil {
		fail(err)
	}
}

func report(res sim.Result, nodes int) {
	fmt.Printf("delivered %d messages; avg latency %.2f cycles (p99 %.0f, max %.0f)\n",
		res.Run.Delivered, res.Run.Latency.Mean(), res.Run.Latency.Percentile(99), res.Run.Latency.Max())
	fmt.Printf("throughput %.4f pkts/node/cycle; drops %d; retries %d; buffered %d\n",
		res.Run.ThroughputPerNode(nodes), res.Run.Drops, res.Run.Retries, res.Run.BufferedPackets)
	if res.Lost > 0 || res.Run.Unreachable > 0 || res.Run.Corrupt > 0 {
		fmt.Printf("lost %d; unreachable probes %d; corrupted hops %d; unresolved %d\n",
			res.Lost, res.Run.Unreachable, res.Run.Corrupt, res.Unresolved)
	}
	fmt.Printf("network power %.2f W (optical %.2f W, electrical %.2f W, leakage %.2f W)\n",
		res.Run.PowerW(photonic.DefaultClockGHz),
		powerShare(res, res.Run.OpticalEnergyPJ),
		powerShare(res, res.Run.ElectricalEnergyPJ),
		powerShare(res, res.Run.LeakagePJ))
	if res.Saturated {
		fmt.Println("NOTE: the network saturated at this load")
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
