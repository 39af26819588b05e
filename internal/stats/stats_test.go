package stats

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestLatencyMean(t *testing.T) {
	var l Latency
	if l.Mean() != 0 || l.Count() != 0 {
		t.Error("empty latency should report zeros")
	}
	for _, v := range []int64{10, 20, 30} {
		l.Add(v)
	}
	if got := l.Mean(); got != 20 {
		t.Errorf("Mean = %v, want 20", got)
	}
	if l.Count() != 3 {
		t.Errorf("Count = %d", l.Count())
	}
}

func TestLatencyPercentileAndMax(t *testing.T) {
	var l Latency
	for i := 1; i <= 100; i++ {
		l.Add(int64(i))
	}
	if got := l.Percentile(50); got != 50 {
		t.Errorf("p50 = %v", got)
	}
	if got := l.Percentile(99); got != 99 {
		t.Errorf("p99 = %v", got)
	}
	if got := l.Max(); got != 100 {
		t.Errorf("Max = %v", got)
	}
	// Adding after sorting still works.
	l.Add(1000)
	if got := l.Max(); got != 1000 {
		t.Errorf("Max after re-add = %v", got)
	}
}

func TestLatencyPercentileEmpty(t *testing.T) {
	var l Latency
	if l.Percentile(99) != 0 || l.Max() != 0 {
		t.Error("empty percentile/max should be 0")
	}
}

// Property: mean lies within [min, max] of the samples.
func TestLatencyMeanBounds(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var l Latency
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, r := range raw {
			v := float64(r)
			l.Add(int64(r))
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		m := l.Mean()
		return m >= lo-1e-9 && m <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRunThroughput(t *testing.T) {
	r := Run{Cycles: 1000, Delivered: 6400}
	if got := r.ThroughputPerNode(64); got != 0.1 {
		t.Errorf("throughput = %v, want 0.1", got)
	}
	var empty Run
	if empty.ThroughputPerNode(64) != 0 {
		t.Error("empty run throughput should be 0")
	}
}

func TestRunPower(t *testing.T) {
	r := Run{Cycles: 4000, ElectricalEnergyPJ: 500, OpticalEnergyPJ: 300, LeakagePJ: 200}
	// 4000 cycles at 4 GHz = 1 µs; 1000 pJ / 1 µs = 1 mW.
	if got := r.PowerW(4.0); !almostEq(got, 0.001) {
		t.Errorf("PowerW = %v, want 0.001", got)
	}
	if r.TotalEnergyPJ() != 1000 {
		t.Errorf("TotalEnergyPJ = %v", r.TotalEnergyPJ())
	}
	var empty Run
	if empty.PowerW(4.0) != 0 {
		t.Error("empty run power should be 0")
	}
}

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestSeriesAppend(t *testing.T) {
	var s Series
	s.Append(1, 10)
	s.Append(2, 20)
	if len(s.X) != 2 || s.Y[1] != 20 {
		t.Error("Series.Append broken")
	}
}

func TestTableRendering(t *testing.T) {
	tb := Table{Title: "demo", Columns: []string{"name", "value"}}
	tb.AddRow("alpha", "1")
	tb.AddRow("b", "22222")
	out := tb.String()
	if !strings.Contains(out, "== demo ==") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "22222") {
		t.Error("missing cells")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Title + header + rule + 2 rows.
	if len(lines) != 5 {
		t.Errorf("rendered %d lines, want 5:\n%s", len(lines), out)
	}
}

// TestTableOverlongRow: rows wider than the header used to index past the
// per-column width slice and panic; they must render instead.
func TestTableOverlongRow(t *testing.T) {
	tb := Table{Columns: []string{"name", "value"}}
	tb.AddRow("alpha", "1", "surplus", "cells")
	tb.AddRow("b")
	out := tb.String()
	for _, want := range []string{"alpha", "surplus", "cells", "b"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing cell %q:\n%s", want, out)
		}
	}
}

func TestF(t *testing.T) {
	cases := map[float64]string{
		3:       "3",
		3.14159: "3.14",
		123.456: "123.5",
	}
	for in, want := range cases {
		if got := F(in); got != want {
			t.Errorf("F(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 4}); !almostEq(got, 2) {
		t.Errorf("GeoMean(1,4) = %v", got)
	}
	if GeoMean(nil) != 0 {
		t.Error("GeoMean(nil) should be 0")
	}
	if GeoMean([]float64{1, 0}) != 0 {
		t.Error("GeoMean with non-positive value should be 0")
	}
}

// refLatency is the sample-slice Latency the count table replaced, kept as
// the reference TestLatencyMatchesReference checks Latency against: it
// keeps every sample, sums them in order, and sorts them in place when a
// percentile or the maximum is read.
type refLatency struct {
	samples []float64
	sum     float64
	sorted  bool
}

func (l *refLatency) Add(cycles float64) {
	l.samples = append(l.samples, cycles)
	l.sum += cycles
	l.sorted = false
}

func (l *refLatency) Count() int { return len(l.samples) }

func (l *refLatency) Mean() float64 {
	if len(l.samples) == 0 {
		return 0
	}
	return l.sum / float64(len(l.samples))
}

func (l *refLatency) Percentile(p float64) float64 {
	if len(l.samples) == 0 {
		return 0
	}
	if !l.sorted {
		sort.Float64s(l.samples)
		l.sorted = true
	}
	idx := int(math.Ceil(p/100*float64(len(l.samples)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(l.samples) {
		idx = len(l.samples) - 1
	}
	return l.samples[idx]
}

func (l *refLatency) Max() float64 {
	if len(l.samples) == 0 {
		return 0
	}
	if !l.sorted {
		sort.Float64s(l.samples)
		l.sorted = true
	}
	return l.samples[len(l.samples)-1]
}

// latencyPercentiles are the ranks the reference comparison reads.
var latencyPercentiles = []float64{0.001, 1, 50, 95, 99, 99.9, 100}

// sameLatency fails unless l reads what ref reads: the count, the mean to
// the bit, every percentile in latencyPercentiles and the maximum.
func sameLatency(t *testing.T, what string, l *Latency, ref *refLatency) {
	t.Helper()
	if l.Count() != ref.Count() {
		t.Fatalf("%s: Count %d, reference %d", what, l.Count(), ref.Count())
	}
	if got, want := l.Mean(), ref.Mean(); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: Mean %v, reference %v", what, got, want)
	}
	for _, p := range latencyPercentiles {
		if got, want := l.Percentile(p), ref.Percentile(p); got != want {
			t.Fatalf("%s: Percentile(%v) %v, reference %v", what, p, got, want)
		}
	}
	if got, want := l.Max(), ref.Max(); got != want {
		t.Fatalf("%s: Max %v, reference %v", what, got, want)
	}
}

// latencyCases are the sample multisets both latency tests fill tables
// with: the edge cases, then random multisets of whole cycles.
func latencyCases() map[string][]int64 {
	cases := map[string][]int64{
		"empty":       nil,
		"one":         {17},
		"all equal":   nil,
		"zero":        {5, 0, 9, 0, 3},
		"around cap":  {latencyCap - 2, 3, latencyCap, latencyCap - 1, latencyCap + 1, 0, latencyCap, 2 * latencyCap},
		"one long":    {4, 9, 20_000_000, 7, 4},
		"only long":   {latencyCap + 9, latencyCap, 1 << 40},
		"cap minus 1": {latencyCap - 1},
	}
	for i := 0; i < 300; i++ {
		cases["all equal"] = append(cases["all equal"], 42)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40; i++ {
		n := 1 + rng.Intn(2000)
		top := []int64{8, 200, latencyCap, 3 * latencyCap}[i%4]
		s := make([]int64, n)
		for j := range s {
			s[j] = rng.Int63n(top)
			if rng.Intn(500) == 0 {
				s[j] = latencyCap + rng.Int63n(20_000_000)
			}
		}
		cases[fmt.Sprintf("random %d (n=%d, below %d)", i, n, top)] = s
	}
	return cases
}

// The count table reads exactly what the sorted samples read, with reads
// interleaved with adds.
func TestLatencyMatchesReference(t *testing.T) {
	for name, samples := range latencyCases() {
		var l Latency
		var ref refLatency
		sameLatency(t, name+" (no samples)", &l, &ref)
		for i, v := range samples {
			l.Add(v)
			ref.Add(float64(v))
			if i%97 == 0 || i == len(samples)-1 {
				sameLatency(t, fmt.Sprintf("%s after %d samples", name, i+1), &l, &ref)
			}
		}
	}
}

// Reading a table writes nothing: after every percentile, the maximum, the
// mean and the count are read, it is DeepEqual to a table filled alike and
// never read.
func TestLatencyReadsDoNotWrite(t *testing.T) {
	for name, samples := range latencyCases() {
		var read, unread Latency
		for _, v := range samples {
			read.Add(v)
			unread.Add(v)
		}
		for i := 0; i <= 1000; i++ {
			read.Percentile(float64(i) / 10)
		}
		read.Max()
		read.Mean()
		read.Count()
		if !reflect.DeepEqual(read, unread) {
			t.Errorf("%s: reading the table changed it", name)
		}
	}
}

func TestLatencyNegativeSamplePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add(-1) did not panic")
		}
	}()
	var l Latency
	l.Add(-1)
}
