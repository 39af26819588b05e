package sim_test

import (
	"testing"

	"phastlane/internal/core"
	"phastlane/internal/electrical"
	"phastlane/internal/figures"
	"phastlane/internal/obs"
	"phastlane/internal/sim"
	"phastlane/internal/traffic"
)

func obsNets() map[string]func() sim.Network {
	return map[string]func() sim.Network{
		"optical": func() sim.Network {
			cfg := core.DefaultConfig()
			cfg.Seed = 7
			return core.New(cfg)
		},
		"electrical": func() sim.Network {
			cfg := electrical.DefaultConfig()
			cfg.Seed = 7
			return electrical.New(cfg)
		},
	}
}

// TestRunRateWithCollector: the observability bundle must agree with the
// harness's own counters for both networks.
func TestRunRateWithCollector(t *testing.T) {
	for name, build := range obsNets() {
		t.Run(name, func(t *testing.T) {
			c := &obs.Collector{
				Metrics: obs.NewMetrics(8, 8),
				Sampler: obs.NewSampler(64, 500),
			}
			r := sim.RunRate(build(), sim.RateConfig{
				Pattern: traffic.Transpose(64), Rate: 0.1,
				Warmup: 300, Measure: 1500, Seed: 7, Obs: c,
			})
			if r.Saturated {
				t.Fatal("unexpected saturation at rate 0.1")
			}
			// Every delivery in the network is an eject event, and the
			// run injects at least as many (warmup included).
			ejects := c.Metrics.Total(obs.KindEject)
			if ejects < r.Run.Delivered {
				t.Errorf("ejects %d < delivered %d", ejects, r.Run.Delivered)
			}
			if c.Metrics.Total(obs.KindLaunch) == 0 {
				t.Error("no launches traced")
			}
			var util int64
			for _, v := range c.Metrics.LinkUtilization() {
				util += v
			}
			if util != r.Run.LinkTraversals {
				t.Errorf("link matrix sum %d != LinkTraversals %d", util, r.Run.LinkTraversals)
			}
			// Sampler bins must re-add to the harness totals.
			var completed, drops int64
			var latSum float64
			for _, b := range c.Sampler.Bins() {
				completed += b.Completed
				latSum += b.LatencySum
				drops += b.Drops
			}
			if completed != int64(r.Run.Latency.Count()) {
				t.Errorf("sampler completed %d != measured %d", completed, r.Run.Latency.Count())
			}
			if want := r.Run.Latency.Mean() * float64(completed); latSum < want-1e-6 || latSum > want+1e-6 {
				t.Errorf("sampler latency sum %v != %v", latSum, want)
			}
			if drops != r.Run.Drops {
				t.Errorf("sampler drops %d != run drops %d", drops, r.Run.Drops)
			}
		})
	}
}

// TestRunTraceWithCollector: trace replay feeds the same bundle.
func TestRunTraceWithCollector(t *testing.T) {
	tr, err := figures.TraceFor("LU", 2000, 17)
	if err != nil {
		t.Fatal(err)
	}
	for name, build := range obsNets() {
		t.Run(name, func(t *testing.T) {
			c := &obs.Collector{
				Metrics: obs.NewMetrics(8, 8),
				Sampler: obs.NewSampler(64, 0),
			}
			res, err := sim.RunTrace(build(), tr, sim.ReplayConfig{Obs: c})
			if err != nil {
				t.Fatal(err)
			}
			if c.Metrics.Total(obs.KindEject) == 0 {
				t.Error("no ejects traced during replay")
			}
			var completed int64
			for _, b := range c.Sampler.Bins() {
				completed += b.Completed
			}
			if completed != res.Run.Delivered {
				t.Errorf("sampler completed %d != delivered %d", completed, res.Run.Delivered)
			}
			if len(c.Sampler.Bins()) < 2 {
				t.Errorf("replay produced %d bins", len(c.Sampler.Bins()))
			}
		})
	}
}

// TestSweepPercentiles: sweep points carry ordered tail-latency
// percentiles.
func TestSweepPercentiles(t *testing.T) {
	pts := sim.Sweep(func() sim.Network {
		cfg := core.DefaultConfig()
		cfg.Seed = 7
		return core.New(cfg)
	}, transpose64, []float64{0.05}, sim.RateConfig{Seed: 7})
	if len(pts) != 1 {
		t.Fatalf("points = %d", len(pts))
	}
	p := pts[0]
	if p.P50 <= 0 || p.P50 > p.P95 || p.P95 > p.P99 {
		t.Errorf("percentiles out of order: %+v", p)
	}
}
