// Determinism tests pinning the engine's core guarantee on the real
// simulators: a (config x rate) grid evaluated with workers=1 and
// workers=8 must produce byte-identical results, for both the Phastlane
// optical network and the electrical baseline.
package exp_test

import (
	"fmt"
	"testing"

	"phastlane/internal/core"
	"phastlane/internal/electrical"
	"phastlane/internal/exp"
	"phastlane/internal/sim"
	"phastlane/internal/traffic"
)

// gridPoint is one (config, rate) cell of the determinism grid.
type gridPoint struct {
	name  string
	build func(seed int64) sim.Network
	rate  float64
}

// opticalGrid is a 3-config x 3-rate grid of Phastlane variants.
func opticalGrid() []gridPoint {
	var pts []gridPoint
	for _, hops := range []int{4, 5, 8} {
		h := hops
		for _, rate := range []float64{0.02, 0.10, 0.20} {
			pts = append(pts, gridPoint{
				name: fmt.Sprintf("Optical%d@%.2f", h, rate),
				build: func(seed int64) sim.Network {
					cfg := core.DefaultConfig()
					cfg.MaxHops = h
					cfg.Seed = seed
					return core.New(cfg)
				},
				rate: rate,
			})
		}
	}
	return pts
}

// electricalGrid is a 3-config x 3-rate grid of baseline variants.
func electricalGrid() []gridPoint {
	var pts []gridPoint
	for _, delay := range []int{2, 3, 4} {
		d := delay
		for _, rate := range []float64{0.02, 0.10, 0.20} {
			pts = append(pts, gridPoint{
				name: fmt.Sprintf("Electrical%d@%.2f", d, rate),
				build: func(seed int64) sim.Network {
					cfg := electrical.DefaultConfig()
					cfg.RouterDelay = d
					cfg.Seed = seed
					return electrical.New(cfg)
				},
				rate: rate,
			})
		}
	}
	return pts
}

// runGrid evaluates the grid with the given worker count and renders each
// point's full result to a string, so comparisons are byte-exact.
func runGrid(pts []gridPoint, workers int) []string {
	return exp.Run(pts, func(i int, p gridPoint) string {
		seed := exp.DeriveSeed(99, uint64(i))
		r := sim.RunRate(p.build(seed), sim.RateConfig{
			Pattern: traffic.Transpose(64),
			Rate:    p.rate, Warmup: 200, Measure: 800, Seed: seed,
		})
		return fmt.Sprintf("%s: offered=%d injected=%d delivered=%d mean=%.17g p99=%.17g sat=%v drops=%d energy=%.17g",
			p.name, r.Offered, r.Run.Injected, r.Run.Delivered,
			r.Run.Latency.Mean(), r.Run.Latency.Percentile(99), r.Saturated,
			r.Run.Drops, r.Run.TotalEnergyPJ())
	}, exp.Options{Workers: workers})
}

func TestGridDeterministicAcrossWorkerCounts(t *testing.T) {
	for _, tc := range []struct {
		family string
		pts    []gridPoint
	}{
		{"phastlane", opticalGrid()},
		{"electrical", electricalGrid()},
	} {
		t.Run(tc.family, func(t *testing.T) {
			serial := runGrid(tc.pts, 1)
			parallel := runGrid(tc.pts, 8)
			for i := range serial {
				if serial[i] != parallel[i] {
					t.Errorf("point %d differs:\n  workers=1: %s\n  workers=8: %s", i, serial[i], parallel[i])
				}
			}
			// Repeat runs must also be stable (no hidden global state).
			again := runGrid(tc.pts, 8)
			for i := range parallel {
				if parallel[i] != again[i] {
					t.Errorf("point %d unstable across repeated parallel runs", i)
				}
			}
		})
	}
}

// TestSweepParallelMatchesSerial fans sim.Sweep curves over exp.Run, one
// curve per worker as figures.Fig9 does, and includes the stateful
// UniformRandom pattern: every point builds its own, so under -race the
// w=8 run shares no generator between workers.
func TestSweepParallelMatchesSerial(t *testing.T) {
	hops := []int{4, 5, 8}
	rates := []float64{0.02, 0.05, 0.10}
	for _, tc := range []struct {
		name       string
		newPattern func() traffic.Pattern
	}{
		{"Shuffle", func() traffic.Pattern { return traffic.Shuffle(64) }},
		{"Uniform", func() traffic.Pattern { return traffic.UniformRandom(64, 11) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			curves := func(workers int) [][]sim.SweepPoint {
				return exp.Run(hops, func(_ int, h int) []sim.SweepPoint {
					return sim.Sweep(func() sim.Network {
						cfg := core.DefaultConfig()
						cfg.MaxHops = h
						cfg.Seed = 11
						return core.New(cfg)
					}, tc.newPattern, rates, sim.RateConfig{Seed: 11})
				}, exp.Options{Workers: workers})
			}
			serial, parallel := curves(1), curves(8)
			if fmt.Sprintf("%#v", serial) != fmt.Sprintf("%#v", parallel) {
				t.Errorf("sweeps differ across worker counts:\n  workers=1: %#v\n  workers=8: %#v", serial, parallel)
			}
		})
	}
}
