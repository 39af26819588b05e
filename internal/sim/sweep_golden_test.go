package sim_test

import (
	"fmt"
	"testing"

	"phastlane/internal/core"
	"phastlane/internal/electrical"
	"phastlane/internal/sim"
	"phastlane/internal/traffic"
)

// goldenOptical and goldenElectrical were captured from the serial,
// pre-engine sim.Sweep (commit 030f018) on transpose traffic, seed 7,
// default warmup and measure. They pin the simulators' numeric behaviour
// from idle to past the knee.
var goldenOptical = []sim.SweepPoint{
	{Rate: 0.05, AvgLatency: 1.946569683908046, Throughput: 0.0435, Saturated: false},
	{Rate: 0.1, AvgLatency: 2.2867151711129075, Throughput: 0.0869765625, Saturated: false},
	{Rate: 0.2, AvgLatency: 65.36322369400209, Throughput: 0.1574765625, Saturated: false},
	{Rate: 0.3, AvgLatency: 136.7354320881391, Throughput: 0.18153125, Saturated: true},
	{Rate: 0.4, AvgLatency: 152.53994557000303, Throughput: 0.19376953125, Saturated: true},
}

var goldenElectrical = []sim.SweepPoint{
	{Rate: 0.05, AvgLatency: 20.229885057471265, Throughput: 0.0435, Saturated: false},
	{Rate: 0.1, AvgLatency: 20.516796910087127, Throughput: 0.0869765625, Saturated: false},
	{Rate: 0.2, AvgLatency: 109.64624294698119, Throughput: 0.15715234375, Saturated: false},
	{Rate: 0.3, AvgLatency: 173.4296725299804, Throughput: 0.18143359375, Saturated: true},
	{Rate: 0.4, AvgLatency: 208.24885453040793, Throughput: 0.19352734375, Saturated: true},
}

func goldenOpticalNet() sim.Network {
	cfg := core.DefaultConfig()
	cfg.MaxHops = 4
	cfg.Seed = 7
	return core.New(cfg)
}

func goldenElectricalNet() sim.Network {
	cfg := electrical.DefaultConfig()
	cfg.Seed = 7
	return electrical.New(cfg)
}

func transpose64() traffic.Pattern { return traffic.Transpose(64) }

func TestSweepMatchesPreRefactorGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale sweep")
	}
	for _, tc := range []struct {
		name   string
		newNet func() sim.Network
		want   []sim.SweepPoint
	}{
		{"optical", goldenOpticalNet, goldenOptical},
		{"electrical", goldenElectricalNet, goldenElectrical},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Each rate runs as a one-point sweep, so the 0.40 point
			// stays pinned though a sweep over all five would stop at
			// the saturated 0.30.
			var got []sim.SweepPoint
			for _, w := range tc.want {
				got = append(got, sim.Sweep(tc.newNet, transpose64, []float64{w.Rate}, sim.RateConfig{Seed: 7})...)
			}
			// Project onto the fields the golden capture predates:
			// the later-added latency percentiles are checked for
			// internal consistency below, not against the capture.
			proj := make([]sim.SweepPoint, len(got))
			for i, p := range got {
				proj[i] = sim.SweepPoint{Rate: p.Rate, AvgLatency: p.AvgLatency,
					Throughput: p.Throughput, Saturated: p.Saturated}
			}
			if fmt.Sprintf("%#v", proj) != fmt.Sprintf("%#v", tc.want) {
				t.Errorf("sweep drifted from pre-refactor golden capture:\n got: %#v\nwant: %#v", proj, tc.want)
			}
			for i, p := range got {
				if p.P50 <= 0 || p.P50 > p.P95 || p.P95 > p.P99 {
					t.Errorf("point %d has inconsistent percentiles: %+v", i, p)
				}
				if p.AvgLatency > p.P99 {
					t.Errorf("point %d mean %v above p99 %v", i, p.AvgLatency, p.P99)
				}
			}
		})
	}
}

// TestSweepEarlyExitContract pins the early exit documented on Sweep: the
// sweep keeps the first saturated point and stops, so later rates are
// never simulated. The rate grid deliberately places easy rates after the
// saturating ones to prove they are skipped.
func TestSweepEarlyExitContract(t *testing.T) {
	rates := []float64{0.01, 0.9, 1.0, 0.02, 0.05}
	pts := sim.Sweep(func() sim.Network {
		cfg := core.DefaultConfig()
		cfg.Seed = 7
		return core.New(cfg)
	}, transpose64, rates, sim.RateConfig{Seed: 7})
	if len(pts) != 2 {
		t.Fatalf("sweep ran %d points, want 2 (early exit after the first saturated)", len(pts))
	}
	if pts[0].Saturated || !pts[1].Saturated {
		t.Fatalf("unexpected saturation pattern: %+v", pts)
	}
	for i, want := range []float64{0.01, 0.9} {
		if pts[i].Rate != want {
			t.Errorf("point %d rate %v, want %v", i, pts[i].Rate, want)
		}
	}
}
