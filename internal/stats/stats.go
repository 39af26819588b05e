// Package stats collects and summarises network simulation metrics:
// per-packet latencies, throughput, drops and retries, and the derived
// quantities the paper reports (average latency, saturation, speedup).
package stats

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// latencyCap bounds Latency's count table: 1<<16 cycles is above a default
// rate run's longest possible latency (Measure + DrainLimit), and the
// table then costs at most 512 KB.
const latencyCap = 1 << 16

// Latency accumulates packet latency samples in whole cycles as an exact
// count table, so what it keeps depends on the longest latency seen, not
// on how many samples a run takes. The zero value is an empty table.
type Latency struct {
	// counts[c] holds the number of samples of c cycles, c < latencyCap.
	// It is exactly as long as the largest such sample plus one.
	counts []int
	// long holds the samples at or above latencyCap, in ascending order.
	long []int64
	n    int
	sum  int64
}

// Add records one latency sample; a negative one panics.
func (l *Latency) Add(cycles int64) {
	switch {
	case cycles < 0:
		panic(fmt.Sprintf("stats: negative latency sample %d", cycles))
	case cycles < latencyCap:
		if c := int(cycles); c >= len(l.counts) {
			l.counts = append(l.counts, make([]int, c+1-len(l.counts))...)
		}
		l.counts[cycles]++
	default:
		i, _ := slices.BinarySearch(l.long, cycles)
		l.long = slices.Insert(l.long, i, cycles)
	}
	l.n++
	l.sum += cycles
}

// Count returns the number of samples.
func (l *Latency) Count() int { return l.n }

// Mean returns the average latency, or 0 with no samples.
func (l *Latency) Mean() float64 {
	if l.n == 0 {
		return 0
	}
	return float64(l.sum) / float64(l.n)
}

// Percentile returns the p-th percentile (0 < p <= 100), or 0 with no
// samples: the sample at rank ceil(p/100·n) in ascending order.
func (l *Latency) Percentile(p float64) float64 {
	if l.n == 0 {
		return 0
	}
	idx := int(math.Ceil(p/100*float64(l.n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= l.n {
		idx = l.n - 1
	}
	for c, k := range l.counts {
		if idx < k {
			return float64(c)
		}
		idx -= k
	}
	return float64(l.long[idx])
}

// Max returns the largest sample, or 0 with no samples.
func (l *Latency) Max() float64 {
	if len(l.long) > 0 {
		return float64(l.long[len(l.long)-1])
	}
	return float64(max(len(l.counts)-1, 0))
}

// Run aggregates the outcome of one simulation run.
type Run struct {
	// Latency of delivered packets, in cycles, injection to delivery.
	Latency Latency
	// Cycles is the simulated duration (measurement phase).
	Cycles int64
	// Injected counts logical messages entering NIC queues;
	// Delivered counts messages fully delivered (all multicast
	// destinations served).
	Injected, Delivered int64
	// Drops counts packet drops; Retries counts retransmissions.
	Drops, Retries int64
	// Lost counts (message, destination) deliveries the delivery layer
	// abandoned and reported (retry budget exhausted, loss timeout, or
	// an unreachable destination under faults); zero without faults or
	// delivery limits armed.
	Lost int64
	// Unreachable counts relaunch attempts that found no usable route
	// to the destination under the active fault set.
	Unreachable int64
	// Corrupt counts control-bit corruption events injected by a fault
	// plan (resonator drift misroutes and spurious drops).
	Corrupt int64
	// LinkTraversals counts packet-link crossings (for power).
	LinkTraversals int64
	// BufferedPackets counts receptions into electrical buffers.
	BufferedPackets int64
	// Energy in picojoules, split by domain.
	ElectricalEnergyPJ, OpticalEnergyPJ float64
	// LeakagePJ is the accumulated static energy.
	LeakagePJ float64
}

// ThroughputPerNode returns delivered packets per node per cycle.
func (r *Run) ThroughputPerNode(nodes int) float64 {
	if r.Cycles == 0 || nodes == 0 {
		return 0
	}
	return float64(r.Delivered) / float64(r.Cycles) / float64(nodes)
}

// TotalEnergyPJ sums dynamic and static energy.
func (r *Run) TotalEnergyPJ() float64 {
	return r.ElectricalEnergyPJ + r.OpticalEnergyPJ + r.LeakagePJ
}

// PowerW converts total energy to average power at the given clock.
func (r *Run) PowerW(clockGHz float64) float64 {
	if r.Cycles == 0 {
		return 0
	}
	seconds := float64(r.Cycles) / (clockGHz * 1e9)
	return r.TotalEnergyPJ() * 1e-12 / seconds
}

// Series is a labelled sequence of (x, y) points: one curve of a figure.
type Series struct {
	Label  string
	X, Y   []float64
	YLabel string
}

// Append adds a point.
func (s *Series) Append(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Table renders labelled rows for terminal output, mimicking the figure
// data the paper plots.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		// Rows may carry more cells than there are column headers; grow
		// the width set so they render instead of indexing past it.
		for len(widths) < len(row) {
			widths = append(widths, 0)
		}
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// F formats a float compactly for table cells.
func F(v float64) string {
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e7:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// GeoMean returns the geometric mean of positive values, or 0 when empty.
func GeoMean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		if v <= 0 {
			return 0
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vs)))
}
