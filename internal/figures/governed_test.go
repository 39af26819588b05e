package figures

import (
	"reflect"
	"strings"
	"testing"
)

// TestJainFairness checks the index at its anchor points: uniform
// shares score 1, a single hog scores 1/n, all-zero scores 0.
func TestJainFairness(t *testing.T) {
	if f := JainFairness([]int64{5, 5, 5, 5}); f != 1 {
		t.Fatalf("uniform shares scored %v, want 1", f)
	}
	if f := JainFairness([]int64{20, 0, 0, 0}); f != 0.25 {
		t.Fatalf("single hog scored %v, want 0.25", f)
	}
	if f := JainFairness([]int64{0, 0}); f != 0 {
		t.Fatalf("all-zero population scored %v, want 0", f)
	}
}

// governedSmallOpts is a cut-down sweep for determinism tests: one
// config, one pattern, two rates, short cycles.
func governedSmallOpts(workers int) GovernedOpts {
	return GovernedOpts{
		Configs: []string{"Optical4"}, Patterns: []string{"Uniform"},
		Rates:  []float64{0.30, 0.60},
		Warmup: 50, Measure: 300, Seed: 3, Workers: workers,
	}
}

// TestGovernedWorkerIndependence checks the study's reproducibility
// contract: one worker and eight workers produce DeepEqual point sets.
func TestGovernedWorkerIndependence(t *testing.T) {
	a, errA := Governed(governedSmallOpts(1))
	b, errB := Governed(governedSmallOpts(8))
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("worker counts diverged:\nw=1: %+v\nw=8: %+v", a, b)
	}
}

// TestGovernedSweepShape checks the point grid and mode behaviours: all
// (pattern, mode, rate) combinations present in stable order, governed
// modes report an admitted rate, only governed modes pace.
func TestGovernedSweepShape(t *testing.T) {
	pts, err := Governed(governedSmallOpts(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 { // 1 config x 1 pattern x 3 modes x 2 rates
		t.Fatalf("got %d points, want 6", len(pts))
	}
	for _, p := range pts {
		switch p.Mode {
		case ModeNone:
			if p.CCRate != 0 || p.Paced != 0 {
				t.Fatalf("ungoverned point reports cc_rate %v, paced %d", p.CCRate, p.Paced)
			}
		case ModeStatic, ModeAIMD:
			if p.CCRate <= 0 {
				t.Fatalf("%s point missing cc_rate", p.Mode)
			}
		}
		if p.Delivered == 0 {
			t.Fatalf("%s@%v delivered nothing", p.Mode, p.Rate)
		}
		if p.Fairness <= 0 || p.Fairness > 1 {
			t.Fatalf("%s@%v fairness %v outside (0, 1]", p.Mode, p.Rate, p.Fairness)
		}
	}
	// Static pacing at 2x its cap must actually decline injections.
	var staticPaced int64
	for _, p := range pts {
		if p.Mode == ModeStatic && p.Rate == 0.60 {
			staticPaced = p.Paced
		}
	}
	if staticPaced == 0 {
		t.Fatal("static cap 0.30 at offered 0.60 paced nothing")
	}
}

// TestGovernedRejectsUnknownNames checks that a bad config or pattern
// name is an error naming it, returned before any point runs.
func TestGovernedRejectsUnknownNames(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*GovernedOpts)
	}{
		{"config", func(o *GovernedOpts) { o.Configs = append(o.Configs, "Foo") }},
		{"pattern", func(o *GovernedOpts) { o.Patterns = append(o.Patterns, "Foo") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := governedSmallOpts(1)
			opts.Progress = func(done, total int) { t.Errorf("point %d of %d ran", done, total) }
			tc.edit(&opts)
			pts, err := Governed(opts)
			if err == nil || !strings.Contains(err.Error(), `"Foo"`) {
				t.Fatalf("got %d points, error %v; want an error naming \"Foo\"", len(pts), err)
			}
		})
	}
}

// TestGovernedRecovery checks the closed loop reacts to hardware
// faults: senders back off while the bisection links are dead and
// re-converge upward after the heal.
func TestGovernedRecovery(t *testing.T) {
	r := GovernedRecovery(RecoveryOpts{Measure: 3600, Seed: 2})
	if len(r.Samples) == 0 {
		t.Fatal("no rate history recorded")
	}
	if r.PreRate == 0 || r.FaultRate == 0 || r.PostRate == 0 {
		t.Fatalf("empty phase mean: pre %v fault %v post %v",
			r.PreRate, r.FaultRate, r.PostRate)
	}
	if r.FaultRate >= r.PreRate {
		t.Fatalf("no back-off: pre %v -> fault %v", r.PreRate, r.FaultRate)
	}
	if r.PostRate <= r.FaultRate {
		t.Fatalf("no re-convergence: fault %v -> post %v", r.FaultRate, r.PostRate)
	}
}
