package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_total", "a counter")
	g := reg.Gauge("test_gauge", "a gauge")
	h := reg.Histogram("test_latency", "a histogram", 8)
	c.Add(3)
	c.Inc()
	g.Set(2.5)
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if c.Load() != 4 {
		t.Errorf("counter = %d, want 4", c.Load())
	}
	if g.Load() != 2.5 {
		t.Errorf("gauge = %v, want 2.5", g.Load())
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Errorf("hist count = %d, want 100", s.Count)
	}
	if s.Sum != 5050 {
		t.Errorf("hist sum = %v, want 5050", s.Sum)
	}
	// The ring holds only the last 8 samples (93..100).
	if s.Min != 93 || s.Max != 100 {
		t.Errorf("ring min/max = %v/%v, want 93/100", s.Min, s.Max)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := newHistogram(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(1)
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != 8000 || s.Sum != 8000 {
		t.Errorf("count/sum = %d/%v, want 8000/8000", s.Count, s.Sum)
	}
}

func TestRegistryDuplicateAndInvalidNames(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("dup_total", "x")
	b := reg.Counter("dup_total", "x")
	if a != b {
		t.Error("re-registering the same counter did not return the original")
	}
	for _, bad := range []string{"", "9starts_with_digit", "has space", "labels{unterminated"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("registering %q did not panic", bad)
				}
			}()
			reg.Counter(bad, "x")
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("kind conflict did not panic")
			}
		}()
		reg.Gauge("dup_total", "x")
	}()
}

func TestPrometheusExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("exp_total", "events").Add(7)
	reg.Gauge("exp_gauge", "level").Set(1.5)
	reg.Counter(`exp_labeled_total{phase="eject"}`, "labelled").Add(2)
	reg.Counter(`exp_labeled_total{phase="walk"}`, "labelled").Add(3)
	reg.Histogram("exp_hist", "dist", 8).Observe(4)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP exp_total events",
		"# TYPE exp_total counter",
		"exp_total 7",
		"exp_gauge 1.5",
		`exp_labeled_total{phase="eject"} 2`,
		`exp_labeled_total{phase="walk"} 3`,
		`exp_hist{quantile="0.5"} 4`,
		"exp_hist_sum 4",
		"exp_hist_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// One header per base name, even with two labelled series.
	if n := strings.Count(out, "# TYPE exp_labeled_total"); n != 1 {
		t.Errorf("labelled series emitted %d TYPE headers, want 1", n)
	}
}

// TestSnapshotRoundTrip pins the JSON serialization: a snapshot survives
// a marshal/unmarshal round trip bit-identically, so the /telemetry.json
// endpoint and any log post-processing agree on the numbers.
func TestSnapshotRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("rt_total", "c").Add(42)
	reg.Gauge("rt_gauge", "g").Set(0.1)
	h := reg.Histogram("rt_hist", "h", 16)
	for i := 0; i < 37; i++ {
		h.Observe(float64(i) * 1.5)
	}
	snap := reg.Snapshot()
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, back) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", back, snap)
	}
	if back.Counters["rt_total"] != 42 {
		t.Errorf("counter = %d, want 42", back.Counters["rt_total"])
	}
	if back.Histograms["rt_hist"].Count != 37 {
		t.Errorf("hist count = %d, want 37", back.Histograms["rt_hist"].Count)
	}
}

func TestPhasesAttribution(t *testing.T) {
	p := NewPhases(1)
	for cycle := int64(0); cycle < 50; cycle++ {
		sp := p.Begin(cycle)
		busyWork(2000)
		sp.Mark(PhaseEject)
		busyWork(2000)
		sp.Mark(PhaseSwitch)
		sp.End()
	}
	s := p.Snapshot()
	if s.SampledCycles != 50 {
		t.Fatalf("sampled %d cycles, want 50", s.SampledCycles)
	}
	if f := s.AttributedFraction(); f < 0.5 {
		t.Errorf("attributed fraction %.2f, want most of the span in named phases", f)
	}
	if len(s.Stats) == 0 || p.Table().String() == "" {
		t.Error("empty attribution table")
	}
}

func TestPhasesSampling(t *testing.T) {
	p := NewPhases(4)
	for cycle := int64(0); cycle < 16; cycle++ {
		sp := p.Begin(cycle)
		sp.Mark(PhaseWalk)
		sp.End()
	}
	if got := p.Snapshot().SampledCycles; got != 4 {
		t.Errorf("sampled %d cycles with every=4 over 16, want 4", got)
	}
}

// TestNilPhasesFree pins the off-state contract: a nil profile hands out
// inactive spans whose marks are no-ops.
func TestNilPhasesFree(t *testing.T) {
	var p *Phases
	sp := p.Begin(0)
	sp.Mark(PhaseEject)
	sp.End()
}

var busySink int

// busyWork burns a deterministic amount of CPU so phase spans have
// measurable width without sleeping.
func busyWork(n int) {
	s := 0
	for i := 0; i < n; i++ {
		s += i * i
	}
	busySink = s
}

func TestWatchdogTripAndFlush(t *testing.T) {
	var buf bytes.Buffer
	run := NewRun(Options{Recorder: NewRecorder(&buf), Watchdog: &Watchdog{}})
	run.Tick(3, 2, 0, 0, 1)
	// Conservation violated: 1+0+1 != 3.
	run.Flush(FlushStats{
		Cycle: 100, Injected: 3, Delivered: 1, Lost: 0, InFlight: 1,
		ActiveRouters: -1,
	})
	if tripped := run.Watchdog.Trips(); len(tripped) != 1 || tripped[0].Name != "conservation" {
		t.Fatalf("trips = %+v, want one conservation trip", tripped)
	}
	var rec Record
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("flight record is not JSONL: %v\n%s", err, buf.String())
	}
	if rec.Type != "watchdog" || !strings.Contains(rec.Trip, "conservation") {
		t.Errorf("record = %+v, want a stamped watchdog sample", rec)
	}
}

func TestWatchdogAbort(t *testing.T) {
	run := NewRun(Options{Watchdog: &Watchdog{Abort: true}})
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "watchdog abort") {
			t.Errorf("abort watchdog did not panic: %v", r)
		}
	}()
	run.Flush(FlushStats{
		Cycle: 1, Injected: 2, ActiveRouters: -1,
	})
}

func TestRecorderSeries(t *testing.T) {
	var buf bytes.Buffer
	r := NewRecorder(&buf)
	r.Write(Record{Type: "sample", Cycle: 1000, Injected: 10}, 100)
	r.Write(Record{Type: "sample", Cycle: 3000, Injected: 25}, 300)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("wrote %d lines, want 2", len(lines))
	}
	var second Record
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatal(err)
	}
	if second.CyclesPerSec <= 0 {
		t.Errorf("second record has no cycle rate: %+v", second)
	}
	// 200 allocs over 2000 cycles.
	if second.AllocsPerCycle != 0.1 {
		t.Errorf("allocs/cycle = %v, want 0.1", second.AllocsPerCycle)
	}
}

func TestServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	RegisterProcessMetrics(reg)
	reg.Counter("served_total", "c").Add(5)
	addr, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	metrics := get("/metrics")
	for _, want := range []string{"served_total 5", "go_goroutines", "process_uptime_seconds"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(get("/telemetry.json")), &snap); err != nil {
		t.Fatalf("/telemetry.json is not valid JSON: %v", err)
	}
	if snap.Counters["served_total"] != 5 {
		t.Errorf("snapshot counter = %d, want 5", snap.Counters["served_total"])
	}
	if idx := get("/debug/pprof/"); !strings.Contains(idx, "profile") {
		t.Error("/debug/pprof/ index missing profile link")
	}
}
