package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"phastlane/internal/mesh"
)

func TestMetricsObserve(t *testing.T) {
	m := NewMetrics(4, 4)
	m.Observe(Event{Cycle: 1, Kind: KindLaunch, MsgID: 1, Node: 0, Dir: mesh.East})
	m.Observe(Event{Cycle: 1, Kind: KindPass, MsgID: 1, Node: 1, Dir: mesh.East})
	m.Observe(Event{Cycle: 1, Kind: KindEject, MsgID: 1, Node: 2, Dir: mesh.Local})
	m.Observe(Event{Cycle: 2, Kind: KindDrop, MsgID: 2, Node: 5, Dir: mesh.North})
	m.Observe(Event{Cycle: 3, Kind: KindSwitch, MsgID: 3, Node: 5, Dir: mesh.South})
	m.Observe(Event{Cycle: 3, Kind: KindLaunch, MsgID: 4, Node: 9, Dir: mesh.Local}) // electrical NIC launch: no link

	if got := m.Count(KindLaunch, 0); got != 1 {
		t.Errorf("launches at node 0 = %d, want 1", got)
	}
	if got := m.Total(KindLaunch); got != 2 {
		t.Errorf("total launches = %d, want 2", got)
	}
	if got := m.Link(0, mesh.East); got != 1 {
		t.Errorf("link 0->E = %d, want 1", got)
	}
	if got := m.Link(5, mesh.South); got != 1 {
		t.Errorf("link 5->S (switch traversal) = %d, want 1", got)
	}
	// Drops and Local-directed launches must not count as link use.
	util := m.LinkUtilization()
	if util[5] != 1 || util[9] != 0 {
		t.Errorf("utilization = %v", util)
	}
	if !m.Equal(m) {
		t.Error("metrics not equal to itself")
	}
	if m.Equal(NewMetrics(4, 4)) {
		t.Error("non-empty metrics equal to empty")
	}
}

func TestMetricsTableAndHeatmap(t *testing.T) {
	m := NewMetrics(2, 2)
	m.Observe(Event{Kind: KindLaunch, Node: 3, Dir: mesh.West})
	m.Observe(Event{Kind: KindDrop, Node: 0, Dir: mesh.North})
	tab := m.Table("optical")
	if len(tab.Rows) != 4 {
		t.Fatalf("table rows = %d, want 4", len(tab.Rows))
	}
	csv := tab.CSV()
	if !strings.Contains(csv, "network,node,x,y,launch") {
		t.Errorf("CSV header missing: %q", strings.SplitN(csv, "\n", 2)[0])
	}
	if !strings.Contains(csv, "optical,3,1,1,1") {
		t.Errorf("CSV row for node 3 missing:\n%s", csv)
	}
	hm := m.UtilizationHeatmap("optical")
	if !strings.Contains(hm, "max 1") {
		t.Errorf("heatmap missing max: %s", hm)
	}
	if lines := strings.Split(strings.TrimSpace(hm), "\n"); len(lines) != 4 { // title + 2 rows + scale
		t.Errorf("heatmap has %d lines, want 4:\n%s", len(lines), hm)
	}
	if dh := m.DropHeatmap("optical"); !strings.Contains(dh, "drops/node") {
		t.Errorf("drop heatmap: %s", dh)
	}
	// All-zero surfaces must render without dividing by zero.
	if z := Heatmap("zeros", 2, 2, make([]int64, 4)); !strings.Contains(z, "max 0") {
		t.Errorf("zero heatmap: %s", z)
	}
}

func TestTraceFileRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	f := NewTraceFile(&buf)
	f.Process(0, "phastlane", 2, 2)
	tr := f.Tracer(0)
	tr(Event{Cycle: 5, Kind: KindInject, MsgID: 7, Node: 1, Dir: mesh.Local})
	tr(Event{Cycle: 5, Kind: KindLaunch, MsgID: 7, Node: 1, Dir: mesh.East})
	tr(Event{Cycle: 6, Kind: KindEject, MsgID: 7, Node: 2, Dir: mesh.Local})
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if f.Events() != 3 {
		t.Errorf("events = %d, want 3", f.Events())
	}
	n, err := ValidateTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("trace does not validate: %v\n%s", err, buf.String())
	}
	// 1 process_name + 4 thread_name + 3 lifecycle slices + 3 flow events.
	if n != 11 {
		t.Errorf("validated %d events, want 11", n)
	}
	if !strings.Contains(buf.String(), `"name":"launch"`) {
		t.Errorf("trace missing launch event:\n%s", buf.String())
	}
	// The lifecycle must be linked by a flow: one start at the inject,
	// steps along the way, one binding end at the eject.
	s := buf.String()
	for _, want := range []string{`"ph":"s"`, `"ph":"t"`, `"ph":"f"`, `"bp":"e"`, `"cat":"flow"`} {
		if !strings.Contains(s, want) {
			t.Errorf("trace missing flow fragment %s:\n%s", want, s)
		}
	}
}

// TestTraceFileFlowAnchors: flow events only make sense bound to a
// duration slice on the same (pid, tid, ts); lifecycle events must be
// written as "X" slices and non-lifecycle kinds stay instants.
func TestTraceFileFlowAnchors(t *testing.T) {
	var buf bytes.Buffer
	f := NewTraceFile(&buf)
	tr := f.Tracer(3)
	tr(Event{Cycle: 9, Kind: KindBuffer, MsgID: 4, Node: 6, Dir: mesh.West})
	tr(Event{Cycle: 9, Kind: KindPass, MsgID: 4, Node: 7, Dir: mesh.West})
	tr(Event{Cycle: 9, Kind: KindCreditStall, MsgID: 0, Node: 7, Dir: mesh.West})
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.Contains(s, `"name":"buffer","cat":"net","ph":"X"`) {
		t.Errorf("buffer event not a slice anchor:\n%s", s)
	}
	if !strings.Contains(s, `"name":"pass","cat":"net","ph":"i"`) {
		t.Errorf("pass event not an instant:\n%s", s)
	}
	// MsgID-0 events describe the topology, not one packet: no flow.
	if strings.Contains(s, `"name":"msg 0"`) {
		t.Errorf("creditstall grew a flow arrow:\n%s", s)
	}
	if f.Events() != 3 {
		t.Errorf("events = %d, want 3", f.Events())
	}
}

func TestTraceFileSliceAndThread(t *testing.T) {
	var buf bytes.Buffer
	f := NewTraceFile(&buf)
	f.ProcessName(9, "why:optical")
	f.Thread(9, 0, "msg 12 (140 cyc)")
	f.Slice(9, 0, "vc-alloc-wait", 100, 40, `{"node":5}`)
	f.Flow(9, 0, "s", 12, 100)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if n, err := ValidateTrace(bytes.NewReader(buf.Bytes())); err != nil || n != 4 {
		t.Fatalf("slice/thread trace: n=%d err=%v\n%s", n, err, buf.String())
	}
	if !strings.Contains(buf.String(), `"ph":"X","ts":100,"dur":40`) {
		t.Errorf("slice not written:\n%s", buf.String())
	}
}

func TestTraceFileEmptyAndInvalid(t *testing.T) {
	var buf bytes.Buffer
	f := NewTraceFile(&buf)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if n, err := ValidateTrace(bytes.NewReader(buf.Bytes())); err != nil || n != 0 {
		t.Errorf("empty trace: n=%d err=%v", n, err)
	}
	if _, err := ValidateTrace(strings.NewReader("{not json")); err == nil {
		t.Error("invalid trace accepted")
	}
	if _, err := ValidateTrace(strings.NewReader(`[{"no":"phase"}]`)); err == nil {
		t.Error("trace without phase accepted")
	}
}

// TestTraceFileConcurrent exercises the shared-file locking two parallel
// networks rely on; run under -race this pins the mutex discipline.
func TestTraceFileConcurrent(t *testing.T) {
	var buf bytes.Buffer
	f := NewTraceFile(&buf)
	var wg sync.WaitGroup
	for pid := 0; pid < 2; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			tr := f.Tracer(pid)
			for i := 0; i < 100; i++ {
				tr(Event{Cycle: int64(i), Kind: KindPass, MsgID: uint64(i), Node: 0, Dir: mesh.North})
			}
		}(pid)
	}
	wg.Wait()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if n, err := ValidateTrace(bytes.NewReader(buf.Bytes())); err != nil || n != 200 {
		t.Errorf("concurrent trace: n=%d err=%v", n, err)
	}
}

func TestSamplerBinning(t *testing.T) {
	s := NewSampler(16, 10)
	for c := int64(0); c < 25; c++ {
		drops := int64(0)
		if c >= 20 {
			drops = c - 19 // cumulative: 1..5 over cycles 20..24
		}
		s.Tick(c, 2, 1, 5.0, 1, drops)
	}
	bins := s.Bins()
	if len(bins) != 3 {
		t.Fatalf("bins = %d, want 3", len(bins))
	}
	if bins[0].Start != 0 || bins[1].Start != 10 || bins[2].Start != 20 {
		t.Errorf("bin starts: %+v", bins)
	}
	if bins[0].Delivered != 20 || bins[0].Completed != 10 || bins[0].Drops != 0 {
		t.Errorf("bin 0: %+v", bins[0])
	}
	if bins[2].Delivered != 10 || bins[2].Drops != 5 {
		t.Errorf("bin 2: %+v", bins[2])
	}
	if got := bins[0].MeanLatency(); got != 5.0 {
		t.Errorf("mean latency = %v, want 5", got)
	}
	series := s.Series("net")
	if len(series) != 3 {
		t.Fatalf("series = %d, want 3", len(series))
	}
	// Throughput of a full bin: 2 deliveries/cycle over 16 nodes.
	if got := series[0].Y[0]; got != 2.0/16 {
		t.Errorf("throughput = %v", got)
	}
	tab := s.Table("net")
	if len(tab.Rows) != 3 {
		t.Errorf("table rows = %d, want 3", len(tab.Rows))
	}
	if !s.Equal(s) {
		t.Error("sampler not equal to itself")
	}
	if s.Equal(NewSampler(16, 10)) {
		t.Error("sampler equal to empty")
	}
}

func TestSamplerGap(t *testing.T) {
	// A quiet drain period must produce empty bins, not a crash.
	s := NewSampler(4, 5)
	s.Tick(0, 1, 0, 0, 1, 0)
	s.Tick(17, 1, 1, 3, 0, 2)
	bins := s.Bins()
	if len(bins) != 4 {
		t.Fatalf("bins = %d, want 4 (two quiet gaps)", len(bins))
	}
	if bins[1].Delivered != 0 || bins[2].Delivered != 0 {
		t.Errorf("gap bins not empty: %+v", bins)
	}
	if bins[3].Drops != 2 {
		t.Errorf("drop delta lost: %+v", bins[3])
	}
}

func TestCollectorTracer(t *testing.T) {
	var nilC *Collector
	if nilC.Tracer() != nil {
		t.Error("nil collector has a tracer")
	}
	if (&Collector{}).Tracer() != nil {
		t.Error("empty collector has a tracer")
	}
	m := NewMetrics(2, 2)
	var traced int
	c := &Collector{Metrics: m, Trace: func(Event) { traced++ }}
	tr := c.Tracer()
	tr(Event{Kind: KindLaunch, Node: 0, Dir: mesh.East})
	if traced != 1 || m.Total(KindLaunch) != 1 {
		t.Errorf("fan-out failed: traced=%d launches=%d", traced, m.Total(KindLaunch))
	}
}

func TestTee(t *testing.T) {
	if Tee(nil, nil) != nil {
		t.Error("Tee(nil, nil) != nil")
	}
	var a, b int
	fa := func(Event) { a++ }
	fb := func(Event) { b++ }
	Tee(fa, nil)(Event{})
	Tee(nil, fb)(Event{})
	Tee(fa, fb)(Event{})
	if a != 2 || b != 2 {
		t.Errorf("tee fan-out: a=%d b=%d, want 2 2", a, b)
	}
}

func TestKindStrings(t *testing.T) {
	seen := map[string]bool{}
	for k := Kind(0); k < NumKinds; k++ {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "Kind(") {
			t.Errorf("kind %d has no name", k)
		}
		if seen[s] {
			t.Errorf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
	e := Event{Cycle: 12, Kind: KindLaunch, MsgID: 3, Node: 27, Dir: mesh.North}
	if got := e.String(); got != "c12 launch msg3 @27->N" {
		t.Errorf("event string = %q", got)
	}
}
