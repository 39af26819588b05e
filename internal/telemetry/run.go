package telemetry

import (
	"fmt"
	"runtime"
)

// Options configures a Run bundle.
type Options struct {
	// Registry to register the run's metrics on; nil creates one.
	Registry *Registry
	// SampleEvery is the phase-timer sampling period (0 =
	// DefaultSampleEvery, 1 = every cycle).
	SampleEvery int
	// FlushEvery is the cycle period of flight-recorder samples and
	// watchdog checks (0 = DefaultFlushEvery).
	FlushEvery int64
	// Recorder receives the JSONL flight record; nil disables it.
	Recorder *Recorder
	// Watchdog configures invariant checking; nil installs a default
	// watchdog (record trips, never abort).
	Watchdog *Watchdog
}

// DefaultFlushEvery is the flush period when none is given.
const DefaultFlushEvery = 10_000

// Run bundles the live telemetry of one harness run: the registry the
// HTTP endpoint scrapes, the kernel phase profile, the flight recorder,
// and the watchdog. The sim harness drives it: Tick once per cycle
// (atomic updates only — the warmed-up loop stays allocation-free) and
// Flush every FlushEvery cycles.
type Run struct {
	Reg      *Registry
	Phases   *Phases
	Recorder *Recorder
	Watchdog *Watchdog
	// FlushEvery is the harness's flush period in cycles.
	FlushEvery int64

	// Harness-fed metrics. Cycles/Injected/Delivered/Lost count the
	// whole run (warmup included); Drops/Retries mirror the network's
	// cumulative counters; InFlight/ActiveRouters are instantaneous.
	Cycles        *Counter
	Injected      *Counter
	Delivered     *Counter
	Lost          *Counter
	Drops         *Counter
	Retries       *Counter
	InFlight      *Gauge
	ActiveRouters *Gauge
	// Latency samples completed measured messages (cycles).
	Latency *Histogram

	lastDrops, lastRetries int64
}

// NewRun builds a telemetry bundle, registering the simulation metric
// vocabulary and the phase profile on the registry.
func NewRun(opt Options) *Run {
	reg := opt.Registry
	if reg == nil {
		reg = NewRegistry()
	}
	if opt.FlushEvery <= 0 {
		opt.FlushEvery = DefaultFlushEvery
	}
	wd := opt.Watchdog
	if wd == nil {
		wd = &Watchdog{}
	}
	t := &Run{
		Reg:        reg,
		Phases:     NewPhases(opt.SampleEvery),
		Recorder:   opt.Recorder,
		Watchdog:   wd,
		FlushEvery: opt.FlushEvery,

		Cycles:        reg.Counter("phastlane_cycles_total", "simulated cycles stepped"),
		Injected:      reg.Counter("phastlane_injected_total", "messages accepted by NICs"),
		Delivered:     reg.Counter("phastlane_delivered_total", "per-destination deliveries"),
		Lost:          reg.Counter("phastlane_lost_total", "measured messages abandoned by the delivery layer"),
		Drops:         reg.Counter("phastlane_drops_total", "optical packet drops"),
		Retries:       reg.Counter("phastlane_retries_total", "drop-retry requeues (retry pressure)"),
		InFlight:      reg.Gauge("phastlane_in_flight", "measured messages outstanding"),
		ActiveRouters: reg.Gauge("phastlane_active_routers", "routers in the event-driven active set (-1: no active set)"),
		Latency:       reg.Histogram("phastlane_latency_cycles", "completed measured-message latency in cycles", 0),
	}
	t.Phases.Register(reg)
	return t
}

// Tick records one harness cycle: accepted injections, per-destination
// deliveries, the network's cumulative drop/retry counters (differenced
// here), and the instantaneous in-flight count. Atomic updates only.
func (t *Run) Tick(injected, delivered int, drops, retries int64, inFlight int) {
	t.Cycles.Inc()
	if injected > 0 {
		t.Injected.Add(int64(injected))
	}
	if delivered > 0 {
		t.Delivered.Add(int64(delivered))
	}
	if d := drops - t.lastDrops; d > 0 {
		t.Drops.Add(d)
		t.lastDrops = drops
	}
	if d := retries - t.lastRetries; d > 0 {
		t.Retries.Add(d)
		t.lastRetries = retries
	}
	t.InFlight.Set(float64(inFlight))
}

// FlushStats carries the harness-side accounting a flush audits and
// records. The message-level counts cover measured messages only (the
// set whose conservation the harness actually guarantees).
type FlushStats struct {
	Cycle    int64
	Injected int64
	// Delivered counts fully completed, non-lost messages.
	Delivered int64
	Lost      int64
	InFlight  int64
	// ActiveRouters is -1 when the network has no active set.
	ActiveRouters int
	// InvariantErr is the network's own CheckInvariants result.
	InvariantErr error
}

// Flush runs the watchdog checks and appends one flight-recorder sample.
// The harness calls it every FlushEvery cycles; it may read MemStats and
// write a JSONL line, so it must stay off the per-cycle path.
func (t *Run) Flush(s FlushStats) {
	t.ActiveRouters.Set(float64(s.ActiveRouters))

	var trip string
	fail := func(name, detail string) {
		tr := t.Watchdog.trip(s.Cycle, name, detail)
		if trip == "" {
			trip = tr.String()
		}
	}
	if s.Delivered+s.Lost+s.InFlight != s.Injected {
		fail("conservation", fmt.Sprintf(
			"delivered %d + lost %d + in-flight %d != injected %d",
			s.Delivered, s.Lost, s.InFlight, s.Injected))
	}
	if s.InvariantErr != nil {
		fail("network-invariant", s.InvariantErr.Error())
	}

	needMem := t.Recorder != nil || t.Watchdog.AllocBudget > 0
	var mem runtime.MemStats
	if needMem {
		runtime.ReadMemStats(&mem)
	}
	if b := t.Watchdog.AllocBudget; b > 0 && t.Recorder != nil {
		// The recorder's malloc bookkeeping provides the window delta;
		// the budget check rides on the next record's rate, computed
		// below by Write. Pre-check with the recorder's last counters.
		if t.Recorder.haveLast && mem.Mallocs >= t.Recorder.lastMallocs {
			if dc := s.Cycle - t.Recorder.lastCycle; dc > 0 {
				rate := float64(mem.Mallocs-t.Recorder.lastMallocs) / float64(dc)
				if rate > b {
					fail("alloc-budget", fmt.Sprintf("%.3f allocs/cycle over budget %.3f", rate, b))
				}
			}
		}
	}
	if t.Recorder != nil {
		typ := "sample"
		if trip != "" {
			typ = "watchdog"
		}
		t.Recorder.Write(Record{
			Type:          typ,
			Cycle:         s.Cycle,
			Injected:      s.Injected,
			Delivered:     s.Delivered,
			Lost:          s.Lost,
			InFlight:      s.InFlight,
			Drops:         t.Drops.Load(),
			Retries:       t.Retries.Load(),
			ActiveRouters: s.ActiveRouters,
			HeapBytes:     mem.HeapAlloc,
			RSSBytes:      readRSS(),
			Trip:          trip,
		}, mem.Mallocs)
	}
}

// Close finalises the run: a closing flight record and recorder flush.
func (t *Run) Close() error {
	if t.Recorder == nil {
		return nil
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	t.Recorder.Write(Record{
		Type:          "final",
		Cycle:         t.Cycles.Load(),
		Injected:      t.Injected.Load(),
		Delivered:     t.Delivered.Load(),
		Lost:          t.Lost.Load(),
		InFlight:      int64(t.InFlight.Load()),
		Drops:         t.Drops.Load(),
		Retries:       t.Retries.Load(),
		ActiveRouters: int(t.ActiveRouters.Load()),
		HeapBytes:     mem.HeapAlloc,
		RSSBytes:      readRSS(),
	}, mem.Mallocs)
	return t.Recorder.Close()
}
