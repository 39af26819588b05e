package figures

import (
	"fmt"
	"math"

	"phastlane/internal/coherence"
	"phastlane/internal/exp"
	"phastlane/internal/photonic"
	"phastlane/internal/sim"
	"phastlane/internal/stats"
	"phastlane/internal/trace"
	"phastlane/internal/traffic"
)

// Fig9Opts controls the synthetic latency-versus-injection-rate sweeps.
type Fig9Opts struct {
	// Rates to sample (packets/node/cycle); nil uses the default grid.
	Rates []float64
	// Warmup and Measure cycles per point; zero uses RunRate defaults.
	Warmup, Measure int
	Seed            int64
}

// DefaultFig9Rates spans from deep pre-saturation to past the knee.
func DefaultFig9Rates() []float64 {
	return []float64{0.01, 0.02, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50}
}

// Fig9Curve is one network's latency curve for one traffic pattern.
type Fig9Curve struct {
	Config string
	Points []sim.SweepPoint
}

// Fig9Result holds the curves of one subfigure (one pattern).
type Fig9Result struct {
	Pattern string
	Curves  []Fig9Curve
}

// Fig9 sweeps the four permutation patterns over the Fig. 9
// configurations. Each (pattern x config) curve is one sim.Sweep, and the
// curves fan out over engine; a sweep builds fresh networks and patterns
// per point, so the output is bit-identical for any worker count.
func Fig9(opts Fig9Opts, engine exp.Options) []Fig9Result {
	rates := opts.Rates
	if rates == nil {
		rates = DefaultFig9Rates()
	}
	patterns := traffic.Patterns(64)
	configs := Fig9Configs()
	type job struct{ pi, ci int }
	jobs := make([]job, 0, len(patterns)*len(configs))
	for pi := range patterns {
		for ci := range configs {
			jobs = append(jobs, job{pi, ci})
		}
	}
	curves := exp.Run(jobs, func(_ int, j job) []sim.SweepPoint {
		return sim.Sweep(
			func() sim.Network { return configs[j.ci].Build(opts.Seed + 1) },
			func() traffic.Pattern { return traffic.Patterns(64)[j.pi] },
			rates, sim.RateConfig{Warmup: opts.Warmup, Measure: opts.Measure, Seed: opts.Seed})
	}, engine)
	out := make([]Fig9Result, len(patterns))
	for ji, j := range jobs {
		if out[j.pi].Pattern == "" {
			out[j.pi].Pattern = patterns[j.pi].Name()
		}
		out[j.pi].Curves = append(out[j.pi].Curves, Fig9Curve{Config: configs[j.ci].Name, Points: curves[ji]})
	}
	return out
}

// Fig9Table renders one pattern's curves as a rate-by-config latency table
// ("sat" marks points past saturation).
func Fig9Table(r Fig9Result) *stats.Table {
	cols := []string{"rate"}
	for _, c := range r.Curves {
		cols = append(cols, c.Config)
	}
	t := &stats.Table{Title: fmt.Sprintf("Fig. 9 (%s): avg packet latency (cycles)", r.Pattern), Columns: cols}
	maxLen := 0
	for _, c := range r.Curves {
		if len(c.Points) > maxLen {
			maxLen = len(c.Points)
		}
	}
	for i := 0; i < maxLen; i++ {
		var rate float64
		cells := make([]string, 0, len(cols))
		for _, c := range r.Curves {
			if i < len(c.Points) {
				rate = c.Points[i].Rate
			}
		}
		cells = append(cells, stats.F(rate))
		for _, c := range r.Curves {
			switch {
			case i >= len(c.Points):
				cells = append(cells, "-")
			case c.Points[i].Saturated:
				cells = append(cells, "sat")
			default:
				cells = append(cells, stats.F(c.Points[i].AvgLatency))
			}
		}
		t.AddRow(cells...)
	}
	return t
}

// Fig9TailTable renders one pattern's curves in long form with the tail of
// the latency distribution: one row per (rate, config) carrying
// mean/p50/p95/p99, the data behind reproduce's fig9_<P>_tails files.
func Fig9TailTable(r Fig9Result) *stats.Table {
	t := &stats.Table{
		Title:   fmt.Sprintf("Fig. 9 (%s): latency distribution (cycles)", r.Pattern),
		Columns: []string{"rate", "config", "mean", "p50", "p95", "p99", "saturated"},
	}
	for _, c := range r.Curves {
		for _, p := range c.Points {
			sat := ""
			if p.Saturated {
				sat = "sat"
			}
			t.AddRow(stats.F(p.Rate), c.Config, stats.F(p.AvgLatency),
				stats.F(p.P50), stats.F(p.P95), stats.F(p.P99), sat)
		}
	}
	return t
}

// Fig9Plot renders one pattern's curves as an ASCII chart (log-y latency
// versus injection rate), the visual form of the paper's Fig. 9.
func Fig9Plot(r Fig9Result) *stats.Plot {
	p := &stats.Plot{
		Title:  fmt.Sprintf("Fig. 9 (%s): latency vs injection rate", r.Pattern),
		XLabel: "packets/node/cycle", YLabel: "cycles", LogY: true,
	}
	for _, c := range r.Curves {
		s := stats.Series{Label: c.Config}
		for _, pt := range c.Points {
			if !pt.Saturated {
				s.Append(pt.Rate, pt.AvgLatency)
			}
		}
		p.Series = append(p.Series, s)
	}
	return p
}

// SplashOpts controls the Fig. 10 / Fig. 11 SPLASH2 runs.
type SplashOpts struct {
	// Benchmarks filters Table 3 by name; nil runs all ten.
	Benchmarks []string
	// Messages overrides each workload's trace length (0 = full).
	Messages int
	Seed     int64
}

// SplashRow holds one benchmark's results across every configuration,
// including the Electrical3 baseline.
type SplashRow struct {
	Benchmark string
	Messages  int
	// Latency is the mean packet latency (cycles): the basis of the
	// Fig. 10 "network speedup" (Electrical3 latency / config latency).
	Latency map[string]float64
	// Makespan is the dependency-driven replay completion time.
	Makespan map[string]int64
	// PowerW is the average network power (Fig. 11).
	PowerW map[string]float64
	// Drops and Retries expose the Phastlane drop behaviour.
	Drops map[string]int64
}

// Speedup returns the Fig. 10 network speedup of cfg on this row.
func (r SplashRow) Speedup(cfg string) float64 {
	base, ok := r.Latency["Electrical3"]
	if !ok || r.Latency[cfg] == 0 {
		return math.NaN()
	}
	return base / r.Latency[cfg]
}

// Splash generates each benchmark's trace once and replays it on the
// Electrical3 baseline plus every Fig. 10 configuration. Trace generation
// fans out per benchmark and the (benchmark x config) replays fan out as
// one flat grid, both on engine's workers; engine's progress counts the
// replays only. Each replay builds its own network and only reads the
// shared trace, so results match a serial run exactly.
func Splash(opts SplashOpts, engine exp.Options) ([]SplashRow, error) {
	var benches []coherence.Params
	for _, p := range coherence.Benchmarks() {
		if !selected(p.Name, opts.Benchmarks) {
			continue
		}
		if opts.Messages > 0 {
			p.Messages = opts.Messages
		}
		benches = append(benches, p)
	}
	type traceOut struct {
		tr  *trace.Trace
		err error
	}
	traces := exp.Run(benches, func(_ int, p coherence.Params) traceOut {
		tr, err := coherence.GenerateTrace(p, coherence.DefaultConfig(), opts.Seed+11)
		return traceOut{tr, err}
	}, exp.Options{Workers: engine.Workers})
	for i, tout := range traces {
		if tout.err != nil {
			return nil, fmt.Errorf("%s: %w", benches[i].Name, tout.err)
		}
	}

	configs := append([]NetConfig{Electrical3}, Fig10Configs()...)
	type job struct{ bi, ci int }
	jobs := make([]job, 0, len(benches)*len(configs))
	for bi := range benches {
		for ci := range configs {
			jobs = append(jobs, job{bi, ci})
		}
	}
	type replayOut struct {
		res sim.Result
		err error
	}
	replays := exp.Run(jobs, func(_ int, j job) replayOut {
		cfg := configs[j.ci]
		res, err := sim.RunTrace(cfg.Build(opts.Seed+3), traces[j.bi].tr, sim.ReplayConfig{})
		if err != nil {
			err = fmt.Errorf("%s on %s: %w", benches[j.bi].Name, cfg.Name, err)
		}
		return replayOut{res, err}
	}, engine)

	rows := make([]SplashRow, len(benches))
	for bi, p := range benches {
		rows[bi] = SplashRow{
			Benchmark: p.Name,
			Messages:  len(traces[bi].tr.Messages),
			Latency:   map[string]float64{},
			Makespan:  map[string]int64{},
			PowerW:    map[string]float64{},
			Drops:     map[string]int64{},
		}
	}
	for ji, j := range jobs {
		out := replays[ji]
		if out.err != nil {
			return nil, out.err
		}
		row := &rows[j.bi]
		name := configs[j.ci].Name
		row.Latency[name] = out.res.Run.Latency.Mean()
		row.Makespan[name] = out.res.Makespan
		row.PowerW[name] = out.res.Run.PowerW(photonic.DefaultClockGHz)
		row.Drops[name] = out.res.Run.Drops
	}
	return rows, nil
}

func selected(name string, filter []string) bool {
	if len(filter) == 0 {
		return true
	}
	for _, f := range filter {
		if f == name {
			return true
		}
	}
	return false
}

// Fig10Table renders the network speedups relative to Electrical3.
func Fig10Table(rows []SplashRow) *stats.Table {
	cols := []string{"benchmark"}
	for _, c := range Fig10Configs() {
		cols = append(cols, c.Name)
	}
	t := &stats.Table{Title: "Fig. 10: network speedup vs Electrical3", Columns: cols}
	for _, r := range rows {
		cells := []string{r.Benchmark}
		for _, c := range Fig10Configs() {
			cells = append(cells, stats.F(r.Speedup(c.Name)))
		}
		t.AddRow(cells...)
	}
	return t
}

// Fig11Table renders the average network power per configuration.
func Fig11Table(rows []SplashRow) *stats.Table {
	configs := append([]NetConfig{Electrical3}, Fig10Configs()...)
	cols := []string{"benchmark"}
	for _, c := range configs {
		cols = append(cols, c.Name)
	}
	t := &stats.Table{Title: "Fig. 11: network power (W)", Columns: cols}
	for _, r := range rows {
		cells := []string{r.Benchmark}
		for _, c := range configs {
			cells = append(cells, stats.F(r.PowerW[c.Name]))
		}
		t.AddRow(cells...)
	}
	return t
}

// Headline summarises the paper's abstract claim for the four-hop network:
// geometric-mean network speedup and mean power reduction versus
// Electrical3.
type Headline struct {
	GeoMeanSpeedup float64
	PowerReduction float64 // fraction, e.g. 0.8 for "80% less power"
}

// Summarise computes the headline numbers for a configuration.
func Summarise(rows []SplashRow, cfg string) Headline {
	var speedups []float64
	var reduction float64
	for _, r := range rows {
		speedups = append(speedups, r.Speedup(cfg))
		reduction += 1 - r.PowerW[cfg]/r.PowerW["Electrical3"]
	}
	if len(rows) == 0 {
		return Headline{}
	}
	return Headline{
		GeoMeanSpeedup: stats.GeoMean(speedups),
		PowerReduction: reduction / float64(len(rows)),
	}
}

// TraceFor exposes trace generation for tools that want to save traces.
func TraceFor(benchmark string, messages int, seed int64) (*trace.Trace, error) {
	p, err := coherence.BenchmarkByName(benchmark)
	if err != nil {
		return nil, err
	}
	if messages > 0 {
		p.Messages = messages
	}
	return coherence.GenerateTrace(p, coherence.DefaultConfig(), seed)
}
