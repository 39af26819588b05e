package figures

import (
	"math"
	"strings"
	"testing"

	"phastlane/internal/exp"
	"phastlane/internal/sim"
)

func TestDesignSpaceTablesRender(t *testing.T) {
	tables := map[string]func() interface{ String() string }{
		"Fig4":   func() interface{ String() string } { return Fig4() },
		"Fig5":   func() interface{ String() string } { return Fig5() },
		"Fig6":   func() interface{ String() string } { return Fig6() },
		"Fig7":   func() interface{ String() string } { return Fig7() },
		"Fig8":   func() interface{ String() string } { return Fig8() },
		"Table1": func() interface{ String() string } { return Table1() },
		"Table2": func() interface{ String() string } { return Table2() },
		"Table3": func() interface{ String() string } { return Table3() },
		"Table4": func() interface{ String() string } { return Table4() },
	}
	for name, f := range tables {
		out := f().String()
		if len(out) < 50 || !strings.Contains(out, "==") {
			t.Errorf("%s renders suspiciously short output:\n%s", name, out)
		}
	}
}

func TestFig6TableContent(t *testing.T) {
	out := Fig6().String()
	for _, want := range []string{"8", "5", "4", "optimistic"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig6 output missing %q:\n%s", want, out)
		}
	}
}

func TestTable3ListsAllBenchmarks(t *testing.T) {
	out := Table3().String()
	for _, b := range []string{"Barnes", "Ocean", "FMM", "Water-Spatial"} {
		if !strings.Contains(out, b) {
			t.Errorf("Table 3 missing %s", b)
		}
	}
}

func TestConfigsNamed(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range append(Fig9Configs(), Fig10Configs()...) {
		if c.Name == "" || c.Build == nil {
			t.Fatalf("config %+v incomplete", c)
		}
		seen[c.Name] = true
	}
	for _, want := range []string{"Optical4", "Optical5", "Optical8",
		"Optical4B32", "Optical4B64", "Optical4IB", "Electrical3", "Electrical2"} {
		if !seen[want] {
			t.Errorf("missing config %s", want)
		}
	}
}

func TestConfigBuildsFreshNetworks(t *testing.T) {
	a := Optical4.Build(1)
	b := Optical4.Build(1)
	if a == b {
		t.Fatal("Build returned a shared network")
	}
	if a.Nodes() != 64 {
		t.Errorf("nodes = %d", a.Nodes())
	}
	if Electrical3.Optical {
		t.Error("Electrical3 flagged optical")
	}
	if !Optical4IB.Optical {
		t.Error("Optical4IB not flagged optical")
	}
}

// A reduced-size end-to-end Fig. 9 slice: optical latency well below
// electrical at low load.
func TestFig9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res := Fig9(Fig9Opts{Rates: []float64{0.02}, Warmup: 100, Measure: 500, Seed: 3}, exp.Options{})
	if len(res) != 4 {
		t.Fatalf("Fig9 returned %d patterns", len(res))
	}
	for _, r := range res {
		lat := map[string]float64{}
		for _, c := range r.Curves {
			if len(c.Points) == 0 {
				t.Fatalf("%s/%s: empty curve", r.Pattern, c.Config)
			}
			lat[c.Config] = c.Points[0].AvgLatency
		}
		if !(lat["Optical4"]*3 < lat["Electrical3"]) {
			t.Errorf("%s: Optical4 %.1f not well below Electrical3 %.1f",
				r.Pattern, lat["Optical4"], lat["Electrical3"])
		}
		if !(lat["Electrical2"] < lat["Electrical3"]) {
			t.Errorf("%s: 2-cycle router not faster than 3-cycle", r.Pattern)
		}
		tbl := Fig9Table(r).String()
		if !strings.Contains(tbl, "Optical4") {
			t.Error("Fig9Table missing config column")
		}
	}
}

// Fig. 9's early exit: every curve keeps its first saturated point and
// stops there, so the easy rate placed after it never runs.
func TestFig9StopsAtFirstSaturatedRate(t *testing.T) {
	res := Fig9(Fig9Opts{Rates: []float64{0.05, 0.45, 0.02}, Warmup: 150, Measure: 500, Seed: 3}, exp.Options{})
	curves := 0
	for _, r := range res {
		for _, c := range r.Curves {
			curves++
			pts := c.Points
			if len(pts) != 2 || pts[0].Rate != 0.05 || pts[0].Saturated || pts[1].Rate != 0.45 || !pts[1].Saturated {
				t.Errorf("%s/%s: points %+v, want [0.05 unsaturated, 0.45 saturated]", r.Pattern, c.Config, pts)
			}
		}
	}
	if curves != 20 {
		t.Errorf("Fig9 drew %d curves, want 20", curves)
	}
}

// A reduced-size end-to-end Fig. 10/11 slice on one light and one bursty
// benchmark: the headline orderings must hold.
func TestSplashShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows, err := Splash(SplashOpts{
		Benchmarks: []string{"Water-Spatial", "FMM"},
		Messages:   4000,
		Seed:       5,
	}, exp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	byName := map[string]SplashRow{}
	for _, r := range rows {
		byName[r.Benchmark] = r
	}
	ws := byName["Water-Spatial"]
	if s := ws.Speedup("Optical4"); s < 1.5 {
		t.Errorf("Water-Spatial Optical4 speedup %.2f, want >= 1.5", s)
	}
	if s := ws.Speedup("Electrical2"); s < 1.0 || s > 2.0 {
		t.Errorf("Water-Spatial Electrical2 speedup %.2f out of plausible band", s)
	}
	// Power: optical 4/5-hop well below electrical; 8-hop above 4-hop.
	if !(ws.PowerW["Optical4"] < 0.5*ws.PowerW["Electrical3"]) {
		t.Errorf("Optical4 power %.1f not well below Electrical3 %.1f",
			ws.PowerW["Optical4"], ws.PowerW["Electrical3"])
	}
	if !(ws.PowerW["Optical8"] > 1.3*ws.PowerW["Optical4"]) {
		t.Errorf("Optical8 power %.1f not well above Optical4 %.1f",
			ws.PowerW["Optical8"], ws.PowerW["Optical4"])
	}
	// The bursty benchmark drops packets at 10 buffers and far fewer
	// with 64.
	fmm := byName["FMM"]
	if fmm.Drops["Optical4"] == 0 {
		t.Error("FMM produced no drops at 10 buffers")
	}
	if fmm.Drops["Optical4IB"] != 0 {
		t.Error("infinite buffers dropped packets")
	}
	if fmm.Drops["Optical4B64"]*2 > fmm.Drops["Optical4"] {
		t.Errorf("64 buffers should cut drops sharply: %d vs %d",
			fmm.Drops["Optical4B64"], fmm.Drops["Optical4"])
	}
	// FMM is far more drop- and buffer-stressed than Water.
	if fmm.Drops["Optical4"] < 10*ws.Drops["Optical4"]+1 {
		t.Errorf("FMM drops %d not far above Water-Spatial %d",
			fmm.Drops["Optical4"], ws.Drops["Optical4"])
	}
	// Tables render.
	if out := Fig10Table(rows).String(); !strings.Contains(out, "FMM") {
		t.Error("Fig10Table missing benchmark")
	}
	if out := Fig11Table(rows).String(); !strings.Contains(out, "Electrical3") {
		t.Error("Fig11Table missing baseline")
	}
	h := Summarise(rows, "Optical4")
	if math.IsNaN(h.GeoMeanSpeedup) || h.GeoMeanSpeedup <= 0 {
		t.Errorf("headline speedup %v", h.GeoMeanSpeedup)
	}
}

func TestSpeedupNaNWithoutBaseline(t *testing.T) {
	r := SplashRow{Latency: map[string]float64{"Optical4": 5}}
	if !math.IsNaN(r.Speedup("Optical4")) {
		t.Error("missing baseline should yield NaN")
	}
}

func TestTraceFor(t *testing.T) {
	tr, err := TraceFor("LU", 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Messages) < 2000 {
		t.Errorf("trace has %d messages", len(tr.Messages))
	}
	if _, err := TraceFor("Nope", 0, 1); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestDefaultFig9Rates(t *testing.T) {
	rates := DefaultFig9Rates()
	for i := 1; i < len(rates); i++ {
		if rates[i] <= rates[i-1] {
			t.Fatal("rates not increasing")
		}
	}
}

// The architecture comparison's qualitative ordering: Phastlane fastest at
// low load; the circuit-switched mesh worst on coherence traffic; the
// Corona bus collapses under broadcast storms.
func TestCompareShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	results, err := Compare(CompareOpts{
		Rates: []float64{0.02}, Measure: 600, Messages: 2500, Seed: 9,
	}, exp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]CompareResult{}
	for _, r := range results {
		byName[r.Config] = r
	}
	opt, ele := byName["Optical4"], byName["Electrical3"]
	bus, cir := byName["Corona-bus"], byName["Circuit-sw"]
	if !(opt.UniformLatency[0.02] < bus.UniformLatency[0.02]) {
		t.Errorf("Phastlane %.1f not below Corona %.1f at low load",
			opt.UniformLatency[0.02], bus.UniformLatency[0.02])
	}
	if !(opt.UniformLatency[0.02] < ele.UniformLatency[0.02]) {
		t.Error("Phastlane not below electrical at low load")
	}
	if !(cir.TraceLatency > 3*ele.TraceLatency) {
		t.Errorf("circuit switching %.0f should be far worse than electrical %.0f on coherence traffic",
			cir.TraceLatency, ele.TraceLatency)
	}
	if !(bus.TraceLatency > opt.TraceLatency) {
		t.Errorf("the single broadcast bus %.0f should trail Phastlane %.0f on coherence traffic",
			bus.TraceLatency, opt.TraceLatency)
	}
	if out := CompareTable(results, []float64{0.02}).String(); !strings.Contains(out, "Corona-bus") {
		t.Error("comparison table missing architecture")
	}
}

func TestFig9PlotRenders(t *testing.T) {
	r := Fig9Result{Pattern: "demo", Curves: []Fig9Curve{
		{Config: "Optical4", Points: []sim.SweepPoint{{Rate: 0.1, AvgLatency: 2}}},
		{Config: "Electrical3", Points: []sim.SweepPoint{{Rate: 0.1, AvgLatency: 20}}},
	}}
	out := Fig9Plot(r).String()
	if !strings.Contains(out, "Optical4") || !strings.Contains(out, "(log)") {
		t.Errorf("plot malformed:\n%s", out)
	}
}

func TestSensitivitySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	pts, err := Sensitivity(SensitivityOpts{Messages: 2000, Seed: 3}, exp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	knobs := map[string]int{}
	for _, p := range pts {
		knobs[p.Knob]++
		if p.Latency <= 0 || p.PowerW <= 0 {
			t.Errorf("%s=%s: degenerate point %+v", p.Knob, p.Value, p)
		}
	}
	for _, k := range []string{"MaxHops", "BufferEntries", "BackoffMax", "NICEntries", "CrossingEff", "Arbiter"} {
		if knobs[k] < 3 {
			t.Errorf("knob %s has %d points", k, knobs[k])
		}
	}
	if out := SensitivityTable(pts, "x").String(); !strings.Contains(out, "CrossingEff") {
		t.Error("table missing knob")
	}
	// Physical orderings: higher crossing efficiency means less power;
	// more buffers mean fewer drops.
	byKV := map[string]SensitivityPoint{}
	for _, p := range pts {
		byKV[p.Knob+"="+p.Value] = p
	}
	if !(byKV["CrossingEff=99%"].PowerW < byKV["CrossingEff=97%"].PowerW) {
		t.Error("crossing efficiency should reduce power")
	}
	if !(byKV["BufferEntries=inf"].Drops == 0) {
		t.Error("infinite buffers dropped")
	}
	if !(byKV["BufferEntries=4"].Drops > byKV["BufferEntries=10"].Drops) {
		t.Error("fewer buffers should drop more")
	}
	if !(byKV["MaxHops=8"].PowerW > byKV["MaxHops=4"].PowerW) {
		t.Error("8-hop provisioning should cost more power")
	}
}
