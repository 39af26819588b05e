package figures

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// smallDegradation keeps the sweep cheap for tests: one trial, short
// phases. Determinism must hold at any size.
func smallDegradation(workers int) DegradationOpts {
	return DegradationOpts{
		Rate: 0.08, Warmup: 100, Measure: 400, Trials: 1, Seed: 5,
		Workers: workers,
	}
}

func TestDegradationDeterministicAcrossWorkerCounts(t *testing.T) {
	serial := Degradation(smallDegradation(1))
	parallel := Degradation(smallDegradation(8))
	if got, want := fmt.Sprintf("%#v", parallel), fmt.Sprintf("%#v", serial); got != want {
		t.Errorf("Degradation differs across worker counts:\nworkers=1: %s\nworkers=8: %s", want, got)
	}
}

func TestDegradationCurvesBehave(t *testing.T) {
	pts := Degradation(smallDegradation(0))
	byKey := map[string]DegradationPoint{}
	for _, p := range pts {
		byKey[fmt.Sprintf("%s/%v/%s", p.Axis, p.Level, p.Config)] = p
		// The delivery guarantee must hold at every point: nothing
		// injected during measurement may vanish unresolved.
		if p.Unresolved != 0 {
			t.Errorf("%s level %v %s: %d unresolved messages", p.Axis, p.Level, p.Config, p.Unresolved)
		}
	}

	// Zero-fault points must deliver essentially everything.
	for _, key := range []string{"dead-links/0/Optical4", "dead-links/0/Electrical3"} {
		p, ok := byKey[key]
		if !ok {
			t.Fatalf("missing point %s", key)
		}
		if p.LostFrac != 0 {
			t.Errorf("%s: lost %.3f of traffic with no faults", key, p.LostFrac)
		}
		if p.Throughput < 0.9*0.08 {
			t.Errorf("%s: healthy throughput %.4f below offered 0.08", key, p.Throughput)
		}
	}

	// Heavy hardware loss must show up as lost traffic: with 48 dead
	// links some destinations are typically unreachable.
	heavy := byKey["dead-links/48/Optical4"]
	light := byKey["dead-links/4/Optical4"]
	if heavy.LostFrac <= light.LostFrac {
		t.Errorf("dead-links curve not degrading: 48 links lost %.4f <= 4 links lost %.4f",
			heavy.LostFrac, light.LostFrac)
	}

	// The corruption axis is optical-only.
	for _, p := range pts {
		if p.Axis == "corruption" && p.Config != "Optical4" {
			t.Errorf("corruption axis ran on %s", p.Config)
		}
	}
}

func TestDegradationTableAndPlot(t *testing.T) {
	pts := Degradation(DegradationOpts{Rate: 0.05, Warmup: 50, Measure: 150, Trials: 1, Seed: 9})
	tbl := DegradationTable(DegradationOpts{Rate: 0.05}, pts)
	if len(tbl.Rows) != len(pts) {
		t.Fatalf("table has %d rows for %d points", len(tbl.Rows), len(pts))
	}
	plot := DegradationPlot("dead-links", pts)
	if len(plot.Series) != 2 {
		t.Fatalf("dead-links plot has %d series, want Optical4 + Electrical3", len(plot.Series))
	}
	if s := plot.String(); s == "" {
		t.Fatal("empty plot render")
	}
}

// TestStudyOptionsResolveDefaults checks that zero-valued study options
// resolve to their documented defaults, so a report built from the
// resolved options records what ran, and that the degradation table's
// title carries the resolved offered rate.
func TestStudyOptionsResolveDefaults(t *testing.T) {
	if got, want := (DegradationOpts{Seed: 4}).Resolved(), (DegradationOpts{
		Rate: 0.10, Warmup: 300, Measure: 1500, Trials: 2, Seed: 4,
	}); !reflect.DeepEqual(got, want) {
		t.Errorf("DegradationOpts{Seed: 4}.Resolved() = %+v, want %+v", got, want)
	}
	if got, want := (GovernedOpts{Seed: 4}).Resolved(), (GovernedOpts{
		Configs: []string{"Optical4", "Electrical3"}, Patterns: []string{"Uniform", "BitComp"},
		Rates: []float64{0.30, 0.40, 0.50, 0.60, 0.70}, StaticRate: 0.30,
		Warmup: 300, Measure: 2000, Seed: 4,
	}); !reflect.DeepEqual(got, want) {
		t.Errorf("GovernedOpts{Seed: 4}.Resolved() = %+v, want %+v", got, want)
	}
	set := DegradationOpts{Rate: 0.25, Warmup: 10, Measure: 20, Trials: 3}
	if got := set.Resolved(); !reflect.DeepEqual(got, set) {
		t.Errorf("Resolved() changed set options %+v to %+v", set, got)
	}
	for rate, want := range map[float64]string{0: "offered 0.10 uniform", 0.25: "offered 0.25 uniform"} {
		if title := DegradationTable(DegradationOpts{Rate: rate}, nil).Title; !strings.Contains(title, want) {
			t.Errorf("DegradationTable at rate %v: title %q, want it to contain %q", rate, title, want)
		}
	}
}
