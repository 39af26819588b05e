package sim_test

import (
	"testing"

	"phastlane/internal/mesh"
	"phastlane/internal/packet"
	"phastlane/internal/sim"
	"phastlane/internal/telemetry"
	"phastlane/internal/traffic"
)

// TestTelemetryWatchdogCleanRun asserts that a healthy run trips no
// watchdog: conservation holds at every flush and both networks' own
// invariant checks pass mid-flight. Abort is set, so a trip fails loudly.
func TestTelemetryWatchdogCleanRun(t *testing.T) {
	for _, tc := range []struct {
		name   string
		newNet func() sim.Network
	}{
		{"optical", optical},
		{"electrical", baseline},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tel := telemetry.NewRun(telemetry.Options{
				FlushEvery: 250,
				Watchdog:   &telemetry.Watchdog{Abort: true},
			})
			sim.RunRate(tc.newNet(), sim.RateConfig{
				Pattern: traffic.UniformRandom(64, 1),
				Rate:    0.10, Warmup: 300, Measure: 2000, Seed: 11,
				Telemetry: tel,
			})
			if trips := tel.Watchdog.Trips(); len(trips) != 0 {
				t.Errorf("clean run tripped the watchdog: %v", trips)
			}
		})
	}
}

// TestPhaseAttributionCoversStep is the acceptance check for the
// time-attribution table: on a busy 8x8 electrical run with phase
// timers sampling every cycle, the named pipeline phases must account
// for at least 90% of the measured Step time.
func TestPhaseAttributionCoversStep(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive attribution check")
	}
	tel := telemetry.NewRun(telemetry.Options{SampleEvery: 1})
	sim.RunRate(baseline(), sim.RateConfig{
		Pattern: traffic.UniformRandom(64, 1),
		Rate:    0.30, Warmup: 500, Measure: 4000, Seed: 3,
		Telemetry: tel,
	})
	s := tel.Phases.Snapshot()
	if s.SampledCycles == 0 {
		t.Fatal("no cycles sampled")
	}
	if f := s.AttributedFraction(); f < 0.90 {
		t.Errorf("named phases cover %.1f%% of step time, want >= 90%%\n%s",
			f*100, tel.Phases.Table())
	}
}

// TestTelemetryTickZeroAlloc pins the enabled-path overhead contract:
// between flush boundaries, a warmed-up run with counters and phase
// timers live allocates nothing per cycle.
func TestTelemetryTickZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name string
		net  sim.Network
	}{
		{"optical", optical()},
		{"electrical", baseline()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := tc.net
			tel := telemetry.NewRun(telemetry.Options{SampleEvery: 1})
			if in, ok := net.(telemetry.Instrumentable); ok {
				in.SetPhases(tel.Phases)
			} else {
				t.Fatalf("%T is not instrumentable", net)
			}
			inj := traffic.NewInjector(traffic.UniformRandom(net.Nodes(), 1), net.Nodes(), 0.05, 2)
			var id uint64
			var buf []sim.Delivery
			dsts := make([]mesh.NodeID, 1)
			cycle := func() {
				injected := 0
				for _, in := range inj.Tick() {
					if net.NICFree(in.Src) > 0 {
						id++
						dsts[0] = in.Dst
						net.Inject(sim.Message{ID: id, Src: in.Src, Dsts: dsts, Op: packet.OpSynthetic})
						injected++
					}
				}
				buf = net.Step(buf[:0])
				r := net.Run()
				tel.Tick(injected, len(buf), r.Drops, r.Retries, 0)
				tel.Latency.Observe(1)
			}
			for i := 0; i < 3000; i++ {
				cycle()
			}
			if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
				t.Errorf("telemetry-on inject+Step+Tick allocates %.2f times per cycle, want 0", allocs)
			}
		})
	}
}

// TestActiveRoutersGaugeBothMeshKernels checks that both mesh kernels
// report their active set to telemetry: the gauge holds a router count
// after a run, not the -1 of a network without an active set.
func TestActiveRoutersGaugeBothMeshKernels(t *testing.T) {
	for _, tc := range []struct {
		name   string
		newNet func() sim.Network
	}{
		{"optical", optical},
		{"electrical", baseline},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tel := telemetry.NewRun(telemetry.Options{FlushEvery: 250})
			sim.RunRate(tc.newNet(), sim.RateConfig{
				Pattern: traffic.UniformRandom(64, 1),
				Rate:    0.10, Warmup: 300, Measure: 1000, Seed: 11,
				Telemetry: tel,
			})
			if g := tel.ActiveRouters.Load(); g < 0 || g > 64 {
				t.Errorf("active-routers gauge = %v, want a count in [0, 64]", g)
			}
		})
	}
}
