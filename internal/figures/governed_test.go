package figures

import (
	"reflect"
	"testing"

	"phastlane/internal/exp"
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

// governedShort runs the study's grid at short phases for tests.
var governedShort = GovernedOpts{Warmup: 50, Measure: 150, Seed: 3}

// TestGovernedWorkerIndependence checks the study's reproducibility
// contract: one worker and eight workers produce DeepEqual point sets.
func TestGovernedWorkerIndependence(t *testing.T) {
	a := Governed(governedShort, exp.Options{Workers: 1})
	b := Governed(governedShort, exp.Options{Workers: 8})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("worker counts diverged:\nw=1: %+v\nw=8: %+v", a, b)
	}
}

// TestGovernedSweepShape checks the point grid and mode behaviours: all
// (config, pattern, mode, rate) combinations present in stable order,
// governed modes report an admitted rate, only governed modes pace.
func TestGovernedSweepShape(t *testing.T) {
	pts := Governed(governedShort, exp.Options{})
	if len(pts) != 60 { // 2 configs x 2 patterns x 3 modes x 5 rates
		t.Fatalf("got %d points, want 60", len(pts))
	}
	if p := pts[len(pts)-1]; p.Config != "Electrical3" || p.Pattern != "BitComp" || p.Mode != ModeAIMD || p.Rate != 0.70 {
		t.Fatalf("last point %s/%s/%s/%v, want Electrical3/BitComp/aimd/0.7", p.Config, p.Pattern, p.Mode, p.Rate)
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
	for _, p := range pts {
		if p.Mode == ModeStatic && p.Rate == 0.60 && p.Paced == 0 {
			t.Fatalf("%s/%s: static cap 0.30 at offered 0.60 paced nothing", p.Config, p.Pattern)
		}
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
