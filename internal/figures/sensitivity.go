package figures

import (
	"fmt"

	"phastlane/internal/core"
	"phastlane/internal/exp"
	"phastlane/internal/photonic"
	"phastlane/internal/sim"
	"phastlane/internal/stats"
)

// Sensitivity sweeps the Phastlane design knobs one at a time around the
// paper's operating point (Optical4 on a mixed coherence workload),
// reporting how latency, drops and power respond. This extends the paper's
// buffer-size study (Fig. 10) to the other free parameters.

// SensitivityOpts controls the sweep.
type SensitivityOpts struct {
	// Benchmark and Messages pick the workload (default Barnes, 6000).
	Benchmark string
	Messages  int
	Seed      int64
}

// SensitivityPoint is one knob setting's outcome.
type SensitivityPoint struct {
	Knob    string
	Value   string
	Latency float64
	Drops   int64
	PowerW  float64
}

// sensitivityJob is one knob setting awaiting its run.
type sensitivityJob struct {
	knob, value string
	mutate      func(*core.Config)
}

// sensitivityJobs enumerates the one-at-a-time sweep grid in report order.
func sensitivityJobs() []sensitivityJob {
	var jobs []sensitivityJob
	add := func(knob, value string, mutate func(*core.Config)) {
		jobs = append(jobs, sensitivityJob{knob, value, mutate})
	}
	for _, hops := range []int{2, 4, 5, 8} {
		h := hops
		add("MaxHops", fmt.Sprint(h), func(c *core.Config) { c.MaxHops = h })
	}
	for _, buf := range []int{4, 10, 32, 64, -1} {
		b := buf
		v := fmt.Sprint(b)
		if b < 0 {
			v = "inf"
		}
		add("BufferEntries", v, func(c *core.Config) { c.BufferEntries = b })
	}
	for _, bo := range []int{1, 8, 64, 256} {
		m := bo
		add("BackoffMax", fmt.Sprint(m), func(c *core.Config) {
			if c.BackoffBase > m {
				c.BackoffBase = m
			}
			c.BackoffMax = m
		})
	}
	for _, nic := range []int{8, 20, 50, 200} {
		v := nic
		add("NICEntries", fmt.Sprint(v), func(c *core.Config) { c.NICEntries = v })
	}
	for _, eff := range []float64{0.97, 0.98, 0.99, 0.995} {
		e := eff
		add("CrossingEff", stats.F(e*100)+"%", func(c *core.Config) { c.CrossingEff = e })
	}
	for _, arb := range []core.Arbiter{core.ArbRotating, core.ArbOldestFirst, core.ArbLongestQueue} {
		a := arb
		add("Arbiter", a.String(), func(c *core.Config) { c.Arbiter = a })
	}
	return jobs
}

// Sensitivity runs the one-at-a-time sweeps and returns all points,
// grouped by knob in a stable order. The knob settings are independent
// replays of one shared trace, so they fan out over engine; each point
// builds its own network from a fresh config.
func Sensitivity(opts SensitivityOpts, engine exp.Options) ([]SensitivityPoint, error) {
	if opts.Benchmark == "" {
		opts.Benchmark = "Barnes"
	}
	if opts.Messages == 0 {
		opts.Messages = 6000
	}
	tr, err := TraceFor(opts.Benchmark, opts.Messages, opts.Seed+31)
	if err != nil {
		return nil, err
	}
	jobs := sensitivityJobs()
	type out struct {
		pt  SensitivityPoint
		err error
	}
	results := exp.Run(jobs, func(_ int, j sensitivityJob) out {
		cfg := core.DefaultConfig()
		cfg.Seed = opts.Seed + 7
		j.mutate(&cfg)
		res, err := sim.RunTrace(core.New(cfg), tr, sim.ReplayConfig{})
		if err != nil {
			return out{err: fmt.Errorf("%s=%s: %w", j.knob, j.value, err)}
		}
		return out{pt: SensitivityPoint{
			Knob: j.knob, Value: j.value,
			Latency: res.Run.Latency.Mean(),
			Drops:   res.Run.Drops,
			PowerW:  res.Run.PowerW(photonic.DefaultClockGHz),
		}}
	}, engine)
	pts := make([]SensitivityPoint, 0, len(results))
	for _, o := range results {
		if o.err != nil {
			return nil, o.err
		}
		pts = append(pts, o.pt)
	}
	return pts, nil
}

// SensitivityTable renders the sweep.
func SensitivityTable(pts []SensitivityPoint, workload string) *stats.Table {
	t := &stats.Table{
		Title:   fmt.Sprintf("Design-knob sensitivity (Optical4 on %s)", workload),
		Columns: []string{"knob", "value", "latency", "drops", "power(W)"},
	}
	for _, p := range pts {
		t.AddRow(p.Knob, p.Value, stats.F(p.Latency), fmt.Sprint(p.Drops), stats.F(p.PowerW))
	}
	return t
}
