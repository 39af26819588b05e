package sim_test

import (
	"reflect"
	"testing"

	"phastlane/internal/figures"
	"phastlane/internal/obs"
	"phastlane/internal/provenance"
	"phastlane/internal/sim"
	"phastlane/internal/telemetry"
	"phastlane/internal/traffic"
)

// observers is one set of listening hooks; nil fields stay off.
type observers struct {
	obs  *obs.Collector
	tel  *telemetry.Run
	prov *provenance.Tracker
}

func newCollector() *obs.Collector {
	return &obs.Collector{Metrics: obs.NewMetrics(8, 8), Sampler: obs.NewSampler(64, 0)}
}

// newTelemetry times every cycle's phases and aborts on any watchdog
// trip, so the conservation audit runs often and fails loudly.
func newTelemetry() *telemetry.Run {
	return telemetry.NewRun(telemetry.Options{
		SampleEvery: 1,
		FlushEvery:  500,
		Watchdog:    &telemetry.Watchdog{Abort: true},
	})
}

func newTracker() *provenance.Tracker {
	return provenance.New(provenance.Config{K: 32, Seed: 7, Width: 8, Height: 8})
}

// TestRunRateObsIdentical: attaching the obs collector changes no result.
func TestRunRateObsIdentical(t *testing.T) {
	checkDoesNotPerturb(t, func() observers { return observers{obs: newCollector()} })
}

// TestTelemetryDoesNotPerturbResults: the full telemetry bundle (phase
// timers sampling every cycle, watchdog, counters) changes no result.
func TestTelemetryDoesNotPerturbResults(t *testing.T) {
	checkDoesNotPerturb(t, func() observers { return observers{tel: newTelemetry()} })
}

// TestProvenanceDoesNotPerturbResults: the provenance tracker changes no
// result.
func TestProvenanceDoesNotPerturbResults(t *testing.T) {
	checkDoesNotPerturb(t, func() observers { return observers{prov: newTracker()} })
}

// TestObserversDoNotPerturbResults: obs, telemetry and provenance attached
// together change no result.
func TestObserversDoNotPerturbResults(t *testing.T) {
	checkDoesNotPerturb(t, func() observers { return observers{newCollector(), newTelemetry(), newTracker()} })
}

// checkDoesNotPerturb pins the observer-effect contract: on every kind of
// simulator and in both run modes, a run with the observers from attach
// returns exactly the result of the same run without them. Observers only
// listen; they never touch network or harness state.
func checkDoesNotPerturb(t *testing.T, attach func() observers) {
	t.Helper()
	tr, err := figures.TraceFor("LU", 1000, 17)
	if err != nil {
		t.Fatal(err)
	}
	modes := []struct {
		name string
		run  func(sim.Network, observers) (sim.Result, error)
	}{
		{"rate-uniform", func(net sim.Network, o observers) (sim.Result, error) {
			// UniformRandom is stateful, so each run needs a fresh pattern.
			return sim.RunRate(net, sim.RateConfig{
				Pattern: traffic.UniformRandom(64, 1),
				Rate:    0.10, Warmup: 300, Measure: 1500, Seed: 7,
				Obs: o.obs, Telemetry: o.tel, Prov: o.prov,
			}), nil
		}},
		// A loaded point: drops and retries feed the observers.
		{"rate-transpose", func(net sim.Network, o observers) (sim.Result, error) {
			return sim.RunRate(net, sim.RateConfig{
				Pattern: traffic.Transpose(64),
				Rate:    0.15, Warmup: 200, Measure: 1000, Seed: 7,
				Obs: o.obs, Telemetry: o.tel, Prov: o.prov,
			}), nil
		}},
		{"trace", func(net sim.Network, o observers) (sim.Result, error) {
			return sim.RunTrace(net, tr, sim.ReplayConfig{Obs: o.obs, Telemetry: o.tel, Prov: o.prov})
		}},
	}
	kernels := []struct {
		name string
		nc   figures.NetConfig
	}{
		{"optical", figures.Optical4},
		{"electrical", figures.Electrical3},
		{"benes", figures.BenesFabric},
	}
	for _, k := range kernels {
		t.Run(k.name, func(t *testing.T) {
			for _, m := range modes {
				t.Run(m.name, func(t *testing.T) {
					bare, err := m.run(k.nc.Build(7), observers{})
					if err != nil {
						t.Fatal(err)
					}
					o := attach()
					got, err := m.run(k.nc.Build(7), o)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(bare, got) {
						t.Errorf("observers perturbed the run:\nbare:     %+v\nobserved: %+v", bare, got)
					}
					if o.prov != nil && o.prov.Completed() != bare.Run.Delivered {
						t.Errorf("tracker completed %d, want %d", o.prov.Completed(), bare.Run.Delivered)
					}
					// The telemetry counters cover the whole run, warmup
					// included, so they bound the measured counts from above.
					if o.tel != nil && (o.tel.Cycles.Load() == 0 ||
						o.tel.Delivered.Load() < bare.Run.Delivered || o.tel.Injected.Load() < bare.Run.Injected) {
						t.Errorf("telemetry counted %d cycles, %d delivered, %d injected; want > 0, >= %d, >= %d",
							o.tel.Cycles.Load(), o.tel.Delivered.Load(), o.tel.Injected.Load(),
							bare.Run.Delivered, bare.Run.Injected)
					}
				})
			}
		})
	}
}
