// Package provenance reconstructs per-packet latency provenance from the
// shared obs event stream: where each packet's end-to-end latency went,
// stage by stage (NIC queueing, retry backoff, per-hop VC-allocation
// wait, switch traversal, link and wire flight, ejection), and which
// routers contributed the queueing. A Tracker tails the event stream of
// one harness run, deterministically reservoir-samples the slowest K
// packets, and aggregates everything into a tail-blame report; sampled
// span trees export to the Perfetto TraceFile as per-packet tracks.
//
// The tracker follows the platform's zero-cost-when-off contract: a nil
// *Tracker installs no tracer and costs the harness one branch per
// message event. Trackers are single-run, single-goroutine objects (one
// per point of a parallel grid), which is what makes the sampled cohort
// bit-identical at any worker count.
package provenance

import (
	"fmt"
	"strings"

	"phastlane/internal/mesh"
	"phastlane/internal/obs"
	"phastlane/internal/stats"
	"phastlane/internal/telemetry"
)

// DefaultK is the slow-packet cohort size when none is given.
const DefaultK = 64

// Config sizes a Tracker.
type Config struct {
	// K is the slowest-packet cohort size (<= 0 clamps to DefaultK).
	K int
	// Seed breaks latency ties in the reservoir deterministically; use
	// the run's seed so re-runs sample the same cohort.
	Seed int64
	// Width, Height shape the (x, y) coordinates in reports. Zero
	// width leaves coordinates zeroed.
	Width, Height int
	// Label names nodes in blame reports (typically a topo.Topology's
	// NodeLabel); when set it wins over the Width/Height mesh
	// coordinates, so non-mesh fabrics get meaningful blame rows.
	Label func(mesh.NodeID) string
}

// packetLog is the per-tracked-packet record: identity, harness-side
// bounds, the raw event log, and (after completion) the stage totals.
type packetLog struct {
	id       uint64
	src      mesh.NodeID
	inject   int64
	complete int64
	latency  int64
	stages   [NumStages]int64
	events   []obs.Event
}

// attributed is the fraction of the packet's latency that named stages
// (everything but StageOther) explain.
func (l *packetLog) attributed() float64 {
	if l.latency <= 0 {
		return 0
	}
	return 1 - float64(l.stages[StageOther])/float64(l.latency)
}

// Tracker tails one run's event stream and accumulates provenance.
type Tracker struct {
	cfg  Config
	logs map[uint64]*packetLog
	free []*packetLog
	res  tailReservoir

	totals    [NumStages]int64
	latSum    int64
	lat       stats.Latency
	completed int64
	lost      int64

	// Optional live telemetry, wired by Register.
	hist     *telemetry.Histogram
	stageCtr [NumStages]*telemetry.Counter
}

// New builds a tracker.
func New(cfg Config) *Tracker {
	if cfg.K <= 0 {
		cfg.K = DefaultK
	}
	return &Tracker{
		cfg:  cfg,
		logs: make(map[uint64]*packetLog),
		res:  tailReservoir{k: cfg.K, seed: cfg.Seed},
	}
}

// getLog pops a recycled log or allocates one.
func (t *Tracker) getLog() *packetLog {
	if n := len(t.free); n > 0 {
		l := t.free[n-1]
		t.free = t.free[:n-1]
		return l
	}
	return &packetLog{}
}

// putLog recycles a log, keeping its event backing array.
func (t *Tracker) putLog(l *packetLog) {
	l.events = l.events[:0]
	l.stages = [NumStages]int64{}
	t.free = append(t.free, l)
}

// Inject starts tracking a message. The harness calls it immediately
// before Network.Inject with the harness-side injection cycle (readiness
// for trace replays), so the network's KindInject event and everything
// after lands in the log.
func (t *Tracker) Inject(id uint64, src mesh.NodeID, cycle int64) {
	l := t.getLog()
	l.id, l.src, l.inject = id, src, cycle
	t.logs[id] = l
}

// Observe is the event tap the harness tees next to the obs collector.
// Events for untracked messages (warmup traffic, MsgID-0 topology
// events) are dropped.
func (t *Tracker) Observe(e obs.Event) {
	if e.MsgID == 0 {
		return
	}
	if l, ok := t.logs[e.MsgID]; ok {
		l.events = append(l.events, e)
	}
}

// Complete resolves a tracked message at its delivery cycle: the event
// log is folded into per-stage totals (the same Walk the report and the
// Perfetto export replay), live telemetry observes the end-to-end
// latency, and the log is offered to the tail reservoir.
func (t *Tracker) Complete(id uint64, cycle int64) {
	l, ok := t.logs[id]
	if !ok {
		return
	}
	delete(t.logs, id)
	l.complete = cycle
	l.latency = cycle - l.inject + 1
	Walk(l.inject, l.complete, l.events, func(sp Span) {
		l.stages[sp.Stage] += sp.Cycles()
	})
	for s := Stage(0); s < NumStages; s++ {
		t.totals[s] += l.stages[s]
		if c := t.stageCtr[s]; c != nil && l.stages[s] != 0 {
			c.Add(l.stages[s])
		}
	}
	t.completed++
	t.latSum += l.latency
	t.lat.Add(l.latency)
	if t.hist != nil {
		t.hist.Observe(float64(l.latency))
	}
	if released := t.res.offer(l); released != nil {
		t.putLog(released)
	}
}

// Lost abandons a tracked message (the delivery layer reported it lost):
// no latency sample, no cohort entry.
func (t *Tracker) Lost(id uint64) {
	if l, ok := t.logs[id]; ok {
		delete(t.logs, id)
		t.putLog(l)
		t.lost++
	}
}

// Completed returns the number of resolved (delivered) packets.
func (t *Tracker) Completed() int64 { return t.completed }

// Unresolved returns the number of packets still tracked — injected but
// neither completed nor lost (a drain that gave up).
func (t *Tracker) Unresolved() int { return len(t.logs) }

// metricName sanitises a run name into Prometheus metric-name charset.
func metricName(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			return r
		}
		return '_'
	}, name)
}

// Register wires the tracker into a live telemetry registry under the
// run name: an end-to-end latency histogram (so Prometheus scrapes tail
// quantiles, not just phase timers) and per-stage attributed-cycle
// counters. Call before the run; nil-safe on the tracker's hot path
// (unregistered trackers skip both).
func (t *Tracker) Register(reg *telemetry.Registry, name string) {
	n := metricName(name)
	t.hist = reg.Histogram("phastlane_e2e_latency_cycles_"+n,
		"end-to-end packet latency in cycles ("+name+")", 0)
	for s := Stage(0); s < NumStages; s++ {
		t.stageCtr[s] = reg.Counter(
			fmt.Sprintf("phastlane_provenance_stage_cycles_total{net=%q,stage=%q}", n, s.String()),
			"packet latency cycles attributed per provenance stage")
	}
}
