package figures

import (
	"fmt"

	"phastlane/internal/core"
	"phastlane/internal/electrical"
	"phastlane/internal/exp"
	"phastlane/internal/fault"
	"phastlane/internal/sim"
	"phastlane/internal/stats"
	"phastlane/internal/traffic"
)

// Degradation sweeps fault rate against delivered throughput and latency
// for the two simulators, producing the robustness counterpart of the
// Fig. 9 load curves: instead of asking how much traffic a healthy network
// sustains, it asks how much hardware can die before a fixed offered load
// stops arriving. Each point injects a randomly-placed fault plan (dead
// links, stuck routers, or control corruption) and measures what fraction
// of the offered traffic still gets through, at what latency, and how much
// the delivery layer had to abandon.

// DegradationRate is the sweep's fixed offered load (packets/node/cycle):
// 0.10 sits comfortably below the healthy-network knee, so any
// degradation is attributable to the faults.
const DegradationRate = 0.10

// DegradationOpts controls the sweep.
type DegradationOpts struct {
	// Warmup and Measure cycles per point; zero uses RunRate's defaults.
	Warmup, Measure int
	// Trials is how many independent fault placements are averaged per
	// point (values below 1 run one). More trials smooth placement luck.
	Trials int
	Seed   int64
}

// DegradationPoint is one (axis, level, config) outcome, averaged over the
// sweep's trials.
type DegradationPoint struct {
	// Axis names the fault dimension: "dead-links", "stuck-routers" or
	// "corruption".
	Axis string `json:"axis"`
	// Level is the axis value: a fault count for the hardware axes, a
	// per-hop probability for corruption.
	Level float64 `json:"level"`
	// Config is the network variant ("Optical4" or "Electrical3").
	Config string `json:"config"`
	// Throughput is delivered packets/node/cycle.
	Throughput float64 `json:"throughput"`
	// AvgLatency is the mean delivered-packet latency in cycles.
	AvgLatency float64 `json:"avg_latency"`
	// LostFrac is the fraction of measured messages the delivery layer
	// abandoned (reported lost / resolved).
	LostFrac float64 `json:"lost_frac"`
	// Unresolved counts measured messages neither delivered nor reported
	// lost when the drain gave up, summed over trials; nonzero values
	// mean the delivery guarantee failed at this point.
	Unresolved int64 `json:"unresolved"`
}

// degradationAxes enumerates the sweep grid. Corruption is an optical
// phenomenon (resonator drift flipping predecoded control bits), so that
// axis runs on the Phastlane network only; the hardware axes run on both.
func degradationAxes() []struct {
	axis   string
	levels []float64
	spec   func(level float64) fault.RandomSpec
	both   bool
} {
	return []struct {
		axis   string
		levels []float64
		spec   func(level float64) fault.RandomSpec
		both   bool
	}{
		{
			axis:   "dead-links",
			levels: []float64{0, 4, 8, 16, 32, 48},
			spec:   func(l float64) fault.RandomSpec { return fault.RandomSpec{DeadLinks: int(l)} },
			both:   true,
		},
		{
			axis:   "stuck-routers",
			levels: []float64{0, 1, 2, 4, 8},
			spec:   func(l float64) fault.RandomSpec { return fault.RandomSpec{StuckRouters: int(l)} },
			both:   true,
		},
		{
			axis:   "corruption",
			levels: []float64{0, 0.001, 0.005, 0.01, 0.02, 0.05},
			spec:   func(l float64) fault.RandomSpec { return fault.RandomSpec{CorruptRate: l} },
			both:   false,
		},
	}
}

// degradationNet builds the named variant with plan installed and the
// delivery layer armed, so faulted runs resolve every message instead of
// hanging the drain phase.
func degradationNet(config string, plan *fault.Plan, seed int64) sim.Network {
	switch config {
	case "Optical4":
		cfg := core.DefaultConfig()
		cfg.Seed = seed
		cfg.Faults = plan
		cfg.RetryLimit = 16
		cfg.LossTimeout = 4000
		return core.New(cfg)
	case "Electrical3":
		cfg := electrical.DefaultConfig()
		cfg.Seed = seed
		cfg.Faults = plan
		cfg.LossTimeout = 4000
		return electrical.New(cfg)
	default:
		panic("figures: unknown degradation config " + config)
	}
}

// Degradation runs the fault sweeps on engine and returns all points in a
// stable order (axis, level, config). Each point's fault placements derive
// from (Seed, point index, trial) alone, so two runs with the same options
// are bit-identical regardless of worker count.
func Degradation(opts DegradationOpts, engine exp.Options) []DegradationPoint {
	trials := max(opts.Trials, 1)
	type job struct {
		axis   string
		level  float64
		config string
		spec   fault.RandomSpec
	}
	var jobs []job
	for _, ax := range degradationAxes() {
		configs := []string{"Optical4", "Electrical3"}
		if !ax.both {
			configs = configs[:1]
		}
		for _, level := range ax.levels {
			for _, cfg := range configs {
				jobs = append(jobs, job{ax.axis, level, cfg, ax.spec(level)})
			}
		}
	}
	return exp.Run(jobs, func(ji int, j job) DegradationPoint {
		pt := DegradationPoint{Axis: j.axis, Level: j.level, Config: j.config}
		for trial := 0; trial < trials; trial++ {
			planSeed := exp.DeriveSeed(opts.Seed, uint64(ji)*64+uint64(trial))
			plan := fault.RandomPlan(planSeed, 8, 8, j.spec)
			net := degradationNet(j.config, plan, opts.Seed+7)
			r := sim.RunRate(net, sim.RateConfig{
				Pattern: traffic.UniformRandom(64, exp.DeriveSeed(opts.Seed, uint64(ji)*64+32+uint64(trial))),
				Rate:    DegradationRate,
				Warmup:  opts.Warmup, Measure: opts.Measure,
				Seed: opts.Seed,
			})
			pt.Throughput += r.Run.ThroughputPerNode(net.Nodes())
			pt.AvgLatency += r.Run.Latency.Mean()
			if resolved := r.Run.Delivered + r.Lost; resolved > 0 {
				pt.LostFrac += float64(r.Lost) / float64(resolved)
			}
			pt.Unresolved += r.Unresolved
		}
		n := float64(trials)
		pt.Throughput /= n
		pt.AvgLatency /= n
		pt.LostFrac /= n
		return pt
	}, engine)
}

// DegradationTable renders the sweep in long form, one row per point.
func DegradationTable(pts []DegradationPoint) *stats.Table {
	t := &stats.Table{
		Title:   fmt.Sprintf("Degradation: throughput/latency vs fault rate (offered %s uniform)", stats.F(DegradationRate)),
		Columns: []string{"axis", "level", "config", "throughput", "latency", "lost", "unresolved"},
	}
	for _, p := range pts {
		t.AddRow(p.Axis, stats.F(p.Level), p.Config, stats.F(p.Throughput),
			stats.F(p.AvgLatency), stats.F(p.LostFrac), fmt.Sprint(p.Unresolved))
	}
	return t
}

// DegradationPlot renders one axis's curves (delivered throughput versus
// fault level, one series per config).
func DegradationPlot(axis string, pts []DegradationPoint) *stats.Plot {
	p := &stats.Plot{
		Title:  fmt.Sprintf("Degradation (%s): delivered throughput vs fault level", axis),
		XLabel: axis, YLabel: "pkts/node/cycle",
	}
	series := map[string]*stats.Series{}
	var order []string
	for _, pt := range pts {
		if pt.Axis != axis {
			continue
		}
		s, ok := series[pt.Config]
		if !ok {
			s = &stats.Series{Label: pt.Config}
			series[pt.Config] = s
			order = append(order, pt.Config)
		}
		s.Append(pt.Level, pt.Throughput)
	}
	for _, name := range order {
		p.Series = append(p.Series, *series[name])
	}
	return p
}
