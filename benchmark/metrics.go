package main

import (
	"math"
	"sort"

	"phastlane/internal/telemetry"
)

// metric names one reported number. BENCHMARK.json lists the same names,
// units and directions; a test keeps the two in step.
type metric struct {
	name, unit string
	higher     bool // higher is better
}

// better is the direction as BENCHMARK.json writes it.
func (m metric) better() string {
	if m.higher {
		return "higher"
	}
	return "lower"
}

// e2eMetrics are what a user of the simulator sees: host time and memory
// (how long and how much to get the numbers) and the modelled results
// themselves, which a simulator-only change must leave identical.
var e2eMetrics = []metric{
	{name: "setup_s", unit: "s"},
	{name: "cycles_per_s", unit: "cycles/s", higher: true},
	{name: "peak_heap_mb", unit: "MB"},
	{name: "allocs_per_cycle", unit: "allocs/cycle"},
	{name: "model_latency_mean_cycles", unit: "cycles"},
	{name: "model_latency_p99_cycles", unit: "cycles"},
	{name: "model_delivered", unit: "messages", higher: true},
	{name: "model_energy_uj", unit: "uJ"},
}

// Phases each kernel's Step reports through telemetry.Phases.
var (
	electricalPhases = []telemetry.Phase{telemetry.PhaseWatchdog, telemetry.PhaseArrivals,
		telemetry.PhaseActiveSet, telemetry.PhaseEject, telemetry.PhaseInject, telemetry.PhaseVCAlloc,
		telemetry.PhaseSwitch, telemetry.PhaseAge, telemetry.PhaseOther}
	corePhases = []telemetry.Phase{telemetry.PhaseWatchdog, telemetry.PhaseDropWindow,
		telemetry.PhaseLaunch, telemetry.PhaseWalk, telemetry.PhaseOther}
)

// hookConfigs are the hook sets the traced run times on workloads that
// arm hooks, each named as in its hooks.<name>_ns_per_cycle metric.
var hookConfigs = []struct {
	name string
	mask hookMask
}{
	{"bare", 0},
	{"obs", hookObs},
	{"telemetry", hookTelemetry},
	{"provenance", hookProvenance},
	{"cc", hookCC},
	{"all", allHooks},
}

// layerMetrics are the traced run's per-layer numbers, one block per
// module. A layer that does not run in a workload reports 0. Host time,
// call counts and shares are better lower (less work per simulated
// cycle); only the two useful-output rates are better higher.
var layerMetrics = func() []metric {
	var ms []metric
	add := func(name, unit string) { ms = append(ms, metric{name: name, unit: unit}) }
	addHigher := func(name, unit string) { ms = append(ms, metric{name: name, unit: unit, higher: true}) }
	kernel := func(k string) {
		add(k+".step_ns_mean", "ns")
		add(k+".step_ns_p50", "ns")
		add(k+".step_ns_p99", "ns")
		add(k+".inject_ns_mean", "ns")
		add(k+".steps", "count")
		add(k+".share", "fraction")
	}
	kernel(kernelElectrical)
	add("electrical.active_routers_mean", "routers")
	add("electrical.active_frac", "fraction")
	for _, p := range electricalPhases {
		add("electrical.phase."+p.String()+"_ns", "ns/step")
	}
	kernel(kernelCore)
	add("core.drops", "count")
	add("core.retries", "count")
	addHigher("core.delivered_per_attempt", "fraction")
	for _, p := range corePhases {
		add("core.phase."+p.String()+"_ns", "ns/step")
	}
	kernel(kernelFabsim)
	add("sim.self_ns_per_cycle", "ns/cycle")
	add("sim.self_share", "fraction")
	add("sim.nicfree_calls", "count")
	for _, h := range hookConfigs {
		add("hooks."+h.name+"_ns_per_cycle", "ns/cycle")
	}
	add("traffic.dest_calls", "count")
	add("traffic.tick_ns_per_cycle", "ns/cycle")
	add("coherence.gen_s", "s")
	addHigher("coherence.gen_msgs_per_s", "msgs/s")
	add("coherence.trace_msgs", "count")
	add("bench.trace_overhead_frac", "fraction")
	add("bench.calib_ms", "ms")
	return ms
}()

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect orders computed values by the metric list, filling 0 for any
// the run did not produce.
func collect(list []metric, got map[string]float64) map[string]value {
	out := make(map[string]value, len(list))
	for _, m := range list {
		out[m.name] = value{Value: got[m.name], Unit: m.unit}
	}
	return out
}

// median of xs (0 when empty); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles are Python's statistics.quantiles(xs, n=4) with its default
// exclusive method, the spread rule the benchmark is judged by.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// percentile of sorted integer samples, nearest rank.
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return float64(sorted[idx])
}
