package provenance

import (
	"bytes"
	"encoding/json"
	"flag"
	"strings"
	"testing"

	"phastlane/internal/mesh"
	"phastlane/internal/obs"
	"phastlane/internal/telemetry"
)

// feed drives one synthetic packet through the tracker: inject, events,
// complete.
func feed(tr *Tracker, id uint64, src mesh.NodeID, inject, complete int64, evs []obs.Event) {
	tr.Inject(id, src, inject)
	for _, e := range evs {
		e.MsgID = id
		tr.Observe(e)
	}
	tr.Complete(id, complete)
}

func opticalFlight(id uint64, inject int64, hops int64) []obs.Event {
	return []obs.Event{
		{Cycle: inject, Kind: obs.KindInject, Node: 0},
		{Cycle: inject + hops, Kind: obs.KindLaunch, Node: 0, Dir: mesh.East},
		{Cycle: inject + hops, Kind: obs.KindEject, Node: 1},
	}
}

func TestTrackerAccumulates(t *testing.T) {
	tr := New(Config{K: 4, Seed: 1, Width: 8, Height: 8})
	feed(tr, 1, 0, 0, 4, opticalFlight(1, 0, 4)) // 5-cycle flight, 4 in NIC
	feed(tr, 2, 0, 10, 12, opticalFlight(2, 10, 2))
	tr.Inject(3, 0, 20)
	tr.Lost(3)
	if tr.Completed() != 2 {
		t.Fatalf("completed = %d, want 2", tr.Completed())
	}
	if tr.Unresolved() != 0 {
		t.Fatalf("unresolved = %d, want 0", tr.Unresolved())
	}
	r := tr.Report("unit")
	if r.Completed != 2 || r.Lost != 1 {
		t.Fatalf("report completed/lost = %d/%d, want 2/1", r.Completed, r.Lost)
	}
	if r.Cohort != 2 {
		t.Fatalf("cohort = %d, want 2", r.Cohort)
	}
	if r.Packets[0].Latency != 5 || r.Packets[1].Latency != 3 {
		t.Fatalf("cohort latencies = %d, %d; want 5, 3 (slowest first)",
			r.Packets[0].Latency, r.Packets[1].Latency)
	}
	if r.AttributionMin < 1 || r.AttributionOverall < 1 {
		t.Fatalf("clean flights must attribute 100%%: min %.3f overall %.3f",
			r.AttributionMin, r.AttributionOverall)
	}
	// Stage cycles of each sampled packet must sum to its latency.
	for _, p := range r.Packets {
		var sum int64
		for _, s := range p.Stages {
			sum += s.Cycles
		}
		if sum != p.Latency {
			t.Fatalf("msg %d stages sum %d != latency %d", p.ID, sum, p.Latency)
		}
	}
}

func TestTrackerIgnoresUntracked(t *testing.T) {
	tr := New(Config{K: 2})
	tr.Observe(obs.Event{Cycle: 1, Kind: obs.KindLaunch, MsgID: 99}) // never injected
	tr.Observe(obs.Event{Cycle: 1, Kind: obs.KindCreditStall, MsgID: 0})
	tr.Complete(99, 5)
	if tr.Completed() != 0 {
		t.Fatalf("untracked completion was counted")
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	tr := New(Config{K: 4, Seed: 1, Width: 8, Height: 8})
	feed(tr, 1, 0, 0, 6, []obs.Event{
		{Cycle: 0, Kind: obs.KindInject, Node: 0},
		{Cycle: 3, Kind: obs.KindLaunch, Node: 0, Dir: mesh.East},
		{Cycle: 3, Kind: obs.KindBuffer, Node: 2, Dir: mesh.East},
		{Cycle: 6, Kind: obs.KindLaunch, Node: 2, Dir: mesh.East},
		{Cycle: 6, Kind: obs.KindEject, Node: 4},
	})
	r := tr.Report("json")
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Name != "json" || back.Completed != 1 || back.Cohort != 1 {
		t.Fatalf("round-trip lost fields: %+v", back)
	}
	// Both the source NIC (node 0) and the interim buffer (node 2) are
	// blamed 3 cycles each; the tie breaks toward the lower node.
	if len(back.Blame) != 2 || back.Blame[0].Node != 0 || back.Blame[1].Node != 2 {
		t.Fatalf("blame round-trip: %+v (want nodes 0 and 2)", back.Blame)
	}
	if back.Blame[1].X != 2 || back.Blame[1].Y != 0 {
		t.Fatalf("blame coords = (%d,%d), want (2,0)", back.Blame[1].X, back.Blame[1].Y)
	}
}

func TestReportFormatRenders(t *testing.T) {
	tr := New(Config{K: 4, Seed: 1, Width: 8, Height: 8})
	feed(tr, 7, 0, 0, 4, opticalFlight(7, 0, 4))
	out := tr.Report("fmt").Format(5)
	for _, want := range []string{"tail-blame report: fmt", "nic-queue", "msg 7", "attribution"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format() missing %q:\n%s", want, out)
		}
	}
}

func TestEmptyTrackerReport(t *testing.T) {
	r := New(Config{K: 4}).Report("empty")
	if r.Completed != 0 || r.Cohort != 0 || r.AttributionMin != 0 {
		t.Fatalf("empty report: %+v", r)
	}
	if out := r.Format(5); !strings.Contains(out, "0 completed") {
		t.Fatalf("empty Format():\n%s", out)
	}
	if _, err := json.Marshal(r); err != nil {
		t.Fatalf("empty report marshal: %v", err)
	}
}

func TestExportPerfettoValidates(t *testing.T) {
	tr := New(Config{K: 4, Seed: 1, Width: 8, Height: 8})
	feed(tr, 1, 0, 0, 6, []obs.Event{
		{Cycle: 0, Kind: obs.KindInject, Node: 0},
		{Cycle: 3, Kind: obs.KindLaunch, Node: 0, Dir: mesh.East},
		{Cycle: 3, Kind: obs.KindBuffer, Node: 2, Dir: mesh.East},
		{Cycle: 6, Kind: obs.KindLaunch, Node: 2, Dir: mesh.East},
		{Cycle: 6, Kind: obs.KindEject, Node: 4},
	})
	feed(tr, 2, 1, 10, 12, opticalFlight(2, 10, 2))
	var buf bytes.Buffer
	tf := obs.NewTraceFile(&buf)
	tr.ExportPerfetto(tf, 3, "unit")
	if err := tf.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	out := buf.String()
	n, err := obs.ValidateTrace(strings.NewReader(out))
	if err != nil {
		t.Fatalf("trace does not validate: %v", err)
	}
	// 1 process_name + 2 thread_name + spans + flows; exact span count
	// depends on the walk, just require a sane floor.
	if n < 8 {
		t.Fatalf("trace has %d objects, want >= 8", n)
	}
	for _, want := range []string{"why:unit slowest packets", `"ph":"X"`, `"ph":"s"`, `"ph":"f"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %q:\n%s", want, out)
		}
	}
}

func TestTrackerRegisterTelemetry(t *testing.T) {
	tr := New(Config{K: 4, Seed: 1})
	reg := telemetry.NewRegistry()
	tr.Register(reg, "8x8 optical")
	feed(tr, 1, 0, 0, 4, opticalFlight(1, 0, 4))
	var dump bytes.Buffer
	reg.WritePrometheus(&dump)
	text := dump.String()
	if !strings.Contains(text, "phastlane_e2e_latency_cycles_8x8_optical") {
		t.Fatalf("missing latency histogram:\n%s", text)
	}
	if !strings.Contains(text, `phastlane_provenance_stage_cycles_total{net="8x8_optical",stage="nic-queue"} 4`) {
		t.Fatalf("missing nic-queue stage counter:\n%s", text)
	}
}

func TestCLIClamp(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	c := RegisterFlags(fs)
	if err := fs.Parse([]string{"-why", "-why-sample=-3", "-why-top=0"}); err != nil {
		t.Fatal(err)
	}
	c.Clamp()
	if !c.Why || c.Sample != DefaultK || c.Top != DefaultTop {
		t.Fatalf("clamped CLI = %+v, want Why with defaults", c)
	}
}
