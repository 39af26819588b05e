package figures

import (
	"fmt"
	"phastlane/internal/topo"
	"strings"

	"phastlane/internal/exp"
	"phastlane/internal/obs"
	"phastlane/internal/photonic"
	"phastlane/internal/provenance"
	"phastlane/internal/sim"
	"phastlane/internal/stats"
	"phastlane/internal/traffic"
)

// The inspection path is the deep dive behind the -trace-out,
// -metrics-out, -series-out, -heatmap and -why flags of cmd/phastlane and
// the -trace-out/-metrics-out/-heatmap flags of cmd/reproduce: it runs
// (network, pattern, rate) points with the observability bundle attached
// and hands back per-node matrices, cycle-windowed time series, and
// (optionally) a Perfetto event trace, so observability costs the
// parallel grids nothing. Runs are deterministic, but a re-run observes
// the simulation a sweep measured only if it builds the network at the
// sweep's seed: Fig9 builds its networks at seed+1 and a deep dive at the
// seed, so the re-run of an optical Fig. 9 point that drops packets is
// not the point Fig. 9 measured (ROADMAP.md, "One run manifest,
// deterministic artifacts").

// InspectOpts describes one observability deep dive.
type InspectOpts struct {
	// Name labels the run in tables, heatmaps and traces.
	Name string
	// Build constructs the network (typically NetConfig.Build).
	Build func(seed int64) sim.Network
	// Width, Height shape the per-node matrices.
	Width, Height int
	// Topo, when non-nil, names nodes in traces and blame reports via
	// NodeLabel (non-mesh fabrics); Width*Height must still equal its
	// endpoint count so the matrices line up.
	Topo topo.Topology
	// Pattern drives injection. Patterns may be stateful, so give every
	// InspectOpts (and every repeated run) its own instance.
	Pattern traffic.Pattern
	// Rate is the injection rate (packets/node/cycle).
	Rate float64
	// Warmup, Measure: cycles before/while recording (RunRate defaults
	// when zero).
	Warmup, Measure int
	// Window is the sampler bin width (0 = obs.DefaultWindow).
	Window int64
	Seed   int64
	// Trace, when non-nil, receives every event - typically
	// obs.TraceFile.Tracer(pid) with a per-run pid.
	Trace func(obs.Event)
}

// InspectResult bundles the observability outputs of one point.
type InspectResult struct {
	Name string
	// Traced reports whether the network emits events; the related-work
	// architectures are not instrumented, so their matrices stay zero
	// while the harness-side time series still fills.
	Traced  bool
	Metrics *obs.Metrics
	Sampler *obs.Sampler
	Run     sim.Result
	// Prov, when non-nil, is the run's provenance tracker, whose
	// tail-blame report Bundle.Write prints.
	Prov *provenance.Tracker
}

// Collector returns the point's observability bundle: per-node matrices
// of Width x Height, a sampler binned at Window, and Trace.
func (o InspectOpts) Collector() *obs.Collector {
	return &obs.Collector{
		Metrics: obs.NewMetrics(o.Width, o.Height),
		Sampler: obs.NewSampler(o.Width*o.Height, o.Window),
		Trace:   o.Trace,
	}
}

// Inspect runs one point with the observability bundle attached.
func Inspect(o InspectOpts) InspectResult {
	c := o.Collector()
	net := o.Build(o.Seed)
	res := InspectResult{Name: o.Name, Metrics: c.Metrics, Sampler: c.Sampler}
	_, res.Traced = net.(obs.Traceable)
	res.Run = sim.RunRate(net, sim.RateConfig{
		Pattern: o.Pattern, Rate: o.Rate,
		Warmup: o.Warmup, Measure: o.Measure,
		Seed: o.Seed, Obs: c,
	})
	return res
}

// InspectGrid fans several inspections out over the experiment engine.
// Each point owns its metrics, sampler and network, so every matrix and
// series is bit-identical for any worker count; only the interleaving of
// events inside a shared trace file is scheduling-dependent.
func InspectGrid(opts []InspectOpts, engine exp.Options) []InspectResult {
	return exp.Run(opts, func(_ int, o InspectOpts) InspectResult {
		return Inspect(o)
	}, engine)
}

// InspectSummaryTable renders one row per inspected point: delivery,
// latency distribution, drop/retry behaviour.
func InspectSummaryTable(results []InspectResult) *stats.Table {
	t := &stats.Table{
		Title: "Inspection summary",
		Columns: []string{"network", "rate", "delivered", "mean", "p50", "p95", "p99",
			"drops", "retries", "buffered", "power-W", "saturated"},
	}
	for i := range results {
		r := &results[i]
		run := &r.Run.Run
		sat := ""
		if r.Run.Saturated {
			sat = "sat"
		}
		t.AddRow(r.Name, stats.F(r.Run.OfferedRate),
			fmt.Sprintf("%d", run.Delivered),
			stats.F(run.Latency.Mean()), stats.F(run.Latency.Percentile(50)),
			stats.F(run.Latency.Percentile(95)), stats.F(run.Latency.Percentile(99)),
			fmt.Sprintf("%d", run.Drops), fmt.Sprintf("%d", run.Retries),
			fmt.Sprintf("%d", run.BufferedPackets),
			stats.F(run.PowerW(photonic.DefaultClockGHz)), sat)
	}
	return t
}

// InspectMetricsTable merges every traced point's per-node matrices into
// one long-form table; its CSV() is the -metrics-out format.
func InspectMetricsTable(results []InspectResult) *stats.Table {
	var t *stats.Table
	for i := range results {
		r := &results[i]
		if !r.Traced {
			continue
		}
		part := r.Metrics.Table(r.Name)
		if t == nil {
			t = part
			continue
		}
		t.Rows = append(t.Rows, part.Rows...)
	}
	if t == nil {
		t = &stats.Table{Columns: []string{"network"}}
	}
	t.Title = "Per-node event matrices"
	return t
}

// InspectSeriesTable merges every point's cycle-windowed time series into
// one long-form table (all networks, traced or not).
func InspectSeriesTable(results []InspectResult) *stats.Table {
	var t *stats.Table
	for i := range results {
		part := results[i].Sampler.Table(results[i].Name)
		if t == nil {
			t = part
			continue
		}
		t.Rows = append(t.Rows, part.Rows...)
	}
	if t == nil {
		t = &stats.Table{Columns: []string{"network"}}
	}
	t.Title = "Cycle-windowed time series"
	return t
}

// InspectHeatmaps renders link-utilization and drop heatmaps for every
// traced point.
func InspectHeatmaps(results []InspectResult) string {
	var b strings.Builder
	for i := range results {
		r := &results[i]
		if !r.Traced {
			fmt.Fprintf(&b, "%s: no event instrumentation (heatmap unavailable)\n\n", r.Name)
			continue
		}
		b.WriteString(r.Metrics.UtilizationHeatmap(r.Name))
		b.WriteByte('\n')
		b.WriteString(r.Metrics.DropHeatmap(r.Name))
		b.WriteByte('\n')
	}
	return b.String()
}

// PatternByName builds a sized traffic pattern from its name.
// Uniform is stateful, so callers must not share the returned pattern
// across concurrent runs.
func PatternByName(name string, nodes int, seed int64) (traffic.Pattern, error) {
	switch name {
	case "Uniform":
		return traffic.UniformRandom(nodes, seed), nil
	case "BitComp":
		return traffic.BitComplement(nodes), nil
	case "BitRev":
		return traffic.BitReverse(nodes), nil
	case "Shuffle":
		return traffic.Shuffle(nodes), nil
	case "Transpose":
		return traffic.Transpose(nodes), nil
	default:
		return nil, fmt.Errorf("unknown pattern %q", name)
	}
}
