package figures

import (
	"phastlane/internal/circuit"
	"phastlane/internal/corona"
	"phastlane/internal/exp"
	"phastlane/internal/fabsim"
	"phastlane/internal/photonic"
	"phastlane/internal/sim"
	"phastlane/internal/stats"
	"phastlane/internal/topo"
	"phastlane/internal/traffic"
)

// The architecture comparison goes beyond the paper's own evaluation: it
// quantifies the Section 1/6 qualitative arguments by running the two
// related-work photonic architectures - a Corona-style MWSR token-bus
// crossbar and a Columbia-style circuit-switched mesh - against
// Phastlane, the electrical baseline, and the indirect fabrics behind
// the topology layer (a 64-endpoint Benes and a radix-4 Shufflecast de
// Bruijn graph on the generic fabric simulator) on identical traffic.

// CoronaStyle and CircuitStyle are the related-work comparison networks.
var (
	CoronaStyle = NetConfig{
		Name:    "Corona-bus",
		Optical: true,
		Build: func(seed int64) sim.Network {
			cfg := corona.DefaultConfig()
			cfg.Seed = seed
			return corona.New(cfg)
		},
	}
	CircuitStyle = NetConfig{
		Name:    "Circuit-sw",
		Optical: true,
		Build: func(seed int64) sim.Network {
			cfg := circuit.DefaultConfig()
			cfg.Seed = seed
			return circuit.New(cfg)
		},
	}
)

// fabricCfg builds a comparison entry for an indirect fabric: the named
// topology running on the generic fabric simulator, with the topology
// kept for node labeling in deep dives.
func fabricCfg(name, fabric string, width, height, arity int) NetConfig {
	t, err := topo.New(fabric, width, height, arity)
	if err != nil {
		panic(err) // static geometry below; cannot fail
	}
	return NetConfig{
		Name:    name,
		Optical: true,
		Topo:    t,
		Build: func(seed int64) sim.Network {
			cfg := fabsim.DefaultConfig(t)
			cfg.Seed = seed
			return fabsim.New(cfg)
		},
	}
}

// BenesFabric and ShuffleFabric are the indirect-fabric comparison
// networks at the evaluation's 64-endpoint scale.
var (
	BenesFabric   = fabricCfg("benes", "benes", 64, 1, 0)
	ShuffleFabric = fabricCfg("shufflecast", "shufflecast", 64, 1, 4)
)

// CompareConfigs returns the architectures of the N-way comparison.
func CompareConfigs() []NetConfig {
	return []NetConfig{Optical4, Electrical3, CoronaStyle, CircuitStyle, BenesFabric, ShuffleFabric}
}

// CompareOpts controls the architecture comparison.
type CompareOpts struct {
	// Rates for the synthetic (uniform-random) latency sweep.
	Rates           []float64
	Warmup, Measure int
	// Messages overrides the length of the coherence-trace round, which
	// replays LU (0 = full).
	Messages int
	Seed     int64
}

// CompareResult holds one architecture's numbers.
type CompareResult struct {
	Config string
	// UniformLatency maps injection rate to mean latency; saturated
	// points are absent.
	UniformLatency map[float64]float64
	// TraceLatency and TracePowerW come from the coherence replay.
	TraceLatency float64
	TracePowerW  float64
	TraceDrops   int64
}

// Compare runs the synthetic sweep and the coherence-trace round on every
// architecture, the architectures fanning out over engine. The
// uniform-random curve is one sim.Sweep per architecture, with a fresh
// UniformRandom per point.
func Compare(opts CompareOpts, engine exp.Options) ([]CompareResult, error) {
	if opts.Rates == nil {
		opts.Rates = []float64{0.02, 0.05, 0.10, 0.20, 0.30}
	}
	tr, err := TraceFor("LU", opts.Messages, opts.Seed+21)
	if err != nil {
		return nil, err
	}
	type archOut struct {
		res CompareResult
		err error
	}
	results := exp.Run(CompareConfigs(), func(_ int, cfg NetConfig) archOut {
		res := CompareResult{Config: cfg.Name, UniformLatency: map[float64]float64{}}
		pts := sim.Sweep(
			func() sim.Network { return cfg.Build(opts.Seed) },
			func() traffic.Pattern { return traffic.UniformRandom(64, opts.Seed+5) },
			opts.Rates, sim.RateConfig{Warmup: opts.Warmup, Measure: opts.Measure, Seed: opts.Seed})
		for _, p := range pts {
			if !p.Saturated {
				res.UniformLatency[p.Rate] = p.AvgLatency
			}
		}
		trres, err := sim.RunTrace(cfg.Build(opts.Seed), tr, sim.ReplayConfig{})
		if err != nil {
			return archOut{err: err}
		}
		res.TraceLatency = trres.Run.Latency.Mean()
		res.TracePowerW = trres.Run.PowerW(photonic.DefaultClockGHz)
		res.TraceDrops = trres.Run.Drops
		return archOut{res: res}
	}, engine)
	var out []CompareResult
	for _, o := range results {
		if o.err != nil {
			return nil, o.err
		}
		out = append(out, o.res)
	}
	return out, nil
}

// CompareTable renders the comparison.
func CompareTable(results []CompareResult, rates []float64) *stats.Table {
	if rates == nil {
		rates = []float64{0.02, 0.05, 0.10, 0.20, 0.30}
	}
	cols := []string{"architecture"}
	for _, r := range rates {
		cols = append(cols, "lat@"+stats.F(r))
	}
	cols = append(cols, "coherence-lat", "coherence-W")
	t := &stats.Table{Title: "Architecture comparison (uniform traffic + coherence trace)", Columns: cols}
	for _, res := range results {
		cells := []string{res.Config}
		for _, r := range rates {
			if v, ok := res.UniformLatency[r]; ok {
				cells = append(cells, stats.F(v))
			} else {
				cells = append(cells, "sat")
			}
		}
		cells = append(cells, stats.F(res.TraceLatency), stats.F(res.TracePowerW))
		t.AddRow(cells...)
	}
	return t
}
