package stats

import (
	"fmt"
	"math"
	"strings"
)

// Plot renders labelled (x, y) series as a fixed-size ASCII chart for
// terminal output of the latency/saturation figures. Each series is drawn
// with its own glyph; y may be log-scaled, which suits latency curves that
// hockey-stick at saturation.
type Plot struct {
	Title  string
	XLabel string
	YLabel string
	LogY   bool
	Width  int // plot-area columns (default 60)
	Height int // plot-area rows (default 16)
	Series []Series
}

// glyphs assigns one marker per series.
var glyphs = []byte{'o', '+', 'x', '*', '#', '@', '%', '&'}

// String renders the chart.
func (p *Plot) String() string {
	w, h := p.Width, p.Height
	if w <= 0 {
		w = 60
	}
	if h <= 0 {
		h = 16
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	points := 0
	for _, s := range p.Series {
		for i := range s.X {
			y := s.Y[i]
			if p.LogY && y <= 0 {
				continue
			}
			points++
			minX, maxX = math.Min(minX, s.X[i]), math.Max(maxX, s.X[i])
			minY, maxY = math.Min(minY, y), math.Max(maxY, y)
		}
	}
	if points == 0 {
		return p.Title + ": (no data)\n"
	}
	if minX == maxX {
		maxX = minX + 1
	}
	if minY == maxY {
		maxY = minY + 1
	}
	yOf := func(v float64) float64 {
		if p.LogY {
			return math.Log(v)
		}
		return v
	}
	loY, hiY := yOf(minY), yOf(maxY)

	grid := make([][]byte, h)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", w))
	}
	for si, s := range p.Series {
		g := glyphs[si%len(glyphs)]
		for i := range s.X {
			y := s.Y[i]
			if p.LogY && y <= 0 {
				continue
			}
			col := int((s.X[i] - minX) / (maxX - minX) * float64(w-1))
			row := h - 1 - int((yOf(y)-loY)/(hiY-loY)*float64(h-1))
			grid[row][col] = g
		}
	}

	var b strings.Builder
	if p.Title != "" {
		fmt.Fprintf(&b, "%s\n", p.Title)
	}
	yTop, yBot := F(maxY), F(minY)
	labelW := len(yTop)
	if len(yBot) > labelW {
		labelW = len(yBot)
	}
	for r := 0; r < h; r++ {
		label := strings.Repeat(" ", labelW)
		if r == 0 {
			label = fmt.Sprintf("%*s", labelW, yTop)
		}
		if r == h-1 {
			label = fmt.Sprintf("%*s", labelW, yBot)
		}
		fmt.Fprintf(&b, "%s |%s\n", label, string(grid[r]))
	}
	fmt.Fprintf(&b, "%s +%s\n", strings.Repeat(" ", labelW), strings.Repeat("-", w))
	fmt.Fprintf(&b, "%s  %-*s%s\n", strings.Repeat(" ", labelW), w-len(F(maxX)), F(minX), F(maxX))
	if p.XLabel != "" || p.YLabel != "" {
		fmt.Fprintf(&b, "%s  x: %s, y: %s%s\n", strings.Repeat(" ", labelW), p.XLabel, p.YLabel, logNote(p.LogY))
	}
	var legend []string
	for si, s := range p.Series {
		legend = append(legend, fmt.Sprintf("%c=%s", glyphs[si%len(glyphs)], s.Label))
	}
	fmt.Fprintf(&b, "%s  %s\n", strings.Repeat(" ", labelW), strings.Join(legend, "  "))
	return b.String()
}

func logNote(on bool) string {
	if on {
		return " (log)"
	}
	return ""
}

// CSV renders a table as comma-separated values for external plotting.
func (t *Table) CSV() string {
	var b strings.Builder
	writeCSVRow(&b, t.Columns)
	for _, row := range t.Rows {
		writeCSVRow(&b, row)
	}
	return b.String()
}

func writeCSVRow(b *strings.Builder, cells []string) {
	for i, c := range cells {
		if i > 0 {
			b.WriteByte(',')
		}
		if strings.ContainsAny(c, ",\"\n") {
			c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
		}
		b.WriteString(c)
	}
	b.WriteByte('\n')
}
