package figures

import (
	"fmt"
	"strings"
	"testing"

	"phastlane/internal/exp"
)

// smallDegradation keeps the sweep cheap for tests: one trial, short
// phases. Determinism must hold at any size.
var smallDegradation = DegradationOpts{Warmup: 100, Measure: 400, Trials: 1, Seed: 5}

func TestDegradationDeterministicAcrossWorkerCounts(t *testing.T) {
	serial := Degradation(smallDegradation, exp.Options{Workers: 1})
	parallel := Degradation(smallDegradation, exp.Options{Workers: 8})
	if got, want := fmt.Sprintf("%#v", parallel), fmt.Sprintf("%#v", serial); got != want {
		t.Errorf("Degradation differs across worker counts:\nworkers=1: %s\nworkers=8: %s", want, got)
	}
}

func TestDegradationCurvesBehave(t *testing.T) {
	pts := Degradation(smallDegradation, exp.Options{})
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
		if p.Throughput < 0.9*DegradationRate {
			t.Errorf("%s: healthy throughput %.4f below offered %v", key, p.Throughput, DegradationRate)
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

// TestDegradationTableAndPlot checks the renderings: one table row per
// point under a title naming the offered rate, and one plot series per
// network on a hardware axis.
func TestDegradationTableAndPlot(t *testing.T) {
	pts := Degradation(DegradationOpts{Warmup: 50, Measure: 150, Trials: 1, Seed: 9}, exp.Options{})
	tbl := DegradationTable(pts)
	if len(tbl.Rows) != len(pts) {
		t.Fatalf("table has %d rows for %d points", len(tbl.Rows), len(pts))
	}
	if want := "offered 0.10 uniform"; !strings.Contains(tbl.Title, want) {
		t.Errorf("table title %q does not contain %q", tbl.Title, want)
	}
	plot := DegradationPlot("dead-links", pts)
	if len(plot.Series) != 2 {
		t.Fatalf("dead-links plot has %d series, want Optical4 + Electrical3", len(plot.Series))
	}
	if s := plot.String(); s == "" {
		t.Fatal("empty plot render")
	}
}
