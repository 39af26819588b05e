package stats

import (
	"strings"
	"testing"
)

func demoPlot() *Plot {
	return &Plot{
		Title: "demo", XLabel: "rate", YLabel: "latency", LogY: true,
		Series: []Series{
			{Label: "optical", X: []float64{0.1, 0.2, 0.3}, Y: []float64{2, 3, 70}},
			{Label: "electrical", X: []float64{0.1, 0.2}, Y: []float64{20, 25}},
		},
	}
}

func TestPlotRenders(t *testing.T) {
	out := demoPlot().String()
	if !strings.Contains(out, "demo") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "o=optical") || !strings.Contains(out, "+=electrical") {
		t.Errorf("missing legend:\n%s", out)
	}
	if !strings.Contains(out, "o") || !strings.Contains(out, "+") {
		t.Error("missing data glyphs")
	}
	if !strings.Contains(out, "(log)") {
		t.Error("missing log annotation")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 16 {
		t.Errorf("plot suspiciously short: %d lines", len(lines))
	}
}

func TestPlotEmpty(t *testing.T) {
	p := &Plot{Title: "empty"}
	if !strings.Contains(p.String(), "no data") {
		t.Error("empty plot should say so")
	}
	// Log scale with only non-positive values is also empty.
	p2 := &Plot{LogY: true, Series: []Series{{Label: "z", X: []float64{1}, Y: []float64{0}}}}
	if !strings.Contains(p2.String(), "no data") {
		t.Error("all-filtered plot should be empty")
	}
}

func TestPlotDegenerateRanges(t *testing.T) {
	p := &Plot{Series: []Series{{Label: "pt", X: []float64{1}, Y: []float64{5}}}}
	out := p.String()
	if !strings.Contains(out, "o") {
		t.Error("single point not plotted")
	}
}

func TestPlotCustomSize(t *testing.T) {
	p := demoPlot()
	p.Width, p.Height = 20, 5
	out := p.String()
	lines := strings.Split(out, "\n")
	plotLines := 0
	for _, l := range lines {
		if strings.Contains(l, "|") {
			plotLines++
		}
	}
	if plotLines != 5 {
		t.Errorf("plot area has %d rows, want 5", plotLines)
	}
}

func TestCSV(t *testing.T) {
	tb := Table{Columns: []string{"a", "b"}, Rows: [][]string{{"1", "x,y"}, {"2", `say "hi"`}}}
	csv := tb.CSV()
	want := "a,b\n1,\"x,y\"\n2,\"say \"\"hi\"\"\"\n"
	if csv != want {
		t.Errorf("CSV = %q, want %q", csv, want)
	}
}
