package telemetry

import (
	"fmt"
	"sync/atomic"
	"time"

	"phastlane/internal/stats"
)

// Phase names one pipeline stage of a simulation kernel's Step. The
// electrical kernel reports the first block; the optical kernel the
// second. PhaseWatchdog and PhaseOther are shared.
type Phase int

// Pipeline phases, in execution order.
const (
	// PhaseWatchdog: the fault/loss watchdog scan (both kernels).
	PhaseWatchdog Phase = iota
	// PhaseArrivals: applying last cycle's link traversals into their
	// reserved VCs (the link/credit half of the electrical pipeline).
	PhaseArrivals
	// PhaseActiveSet: clearing routers that went idle from the
	// electrical kernel's active set.
	PhaseActiveSet
	// PhaseEject: direct ejection to local nodes.
	PhaseEject
	// PhaseInject: NIC head to local-port VC injection.
	PhaseInject
	// PhaseVCAlloc: iSLIP request gathering plus VC allocation.
	PhaseVCAlloc
	// PhaseSwitch: iSLIP switch allocation and link traversal.
	PhaseSwitch
	// PhaseAge: VC pipeline aging.
	PhaseAge
	// PhaseDropWindow: optical drop-window resolution (retry requeues).
	PhaseDropWindow
	// PhaseLaunch: optical rotating-priority launch arbitration.
	PhaseLaunch
	// PhaseWalk: the optical wavefront walk (passes, taps, captures).
	PhaseWalk
	// PhaseOther is the Step residue outside any marked phase
	// (energy accounting, cycle bookkeeping).
	PhaseOther

	// NumPhases bounds Phase for dense arrays.
	NumPhases
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhaseWatchdog:
		return "watchdog"
	case PhaseArrivals:
		return "arrivals"
	case PhaseActiveSet:
		return "active-set"
	case PhaseEject:
		return "eject"
	case PhaseInject:
		return "inject"
	case PhaseVCAlloc:
		return "vcalloc"
	case PhaseSwitch:
		return "switch"
	case PhaseAge:
		return "age"
	case PhaseDropWindow:
		return "drop-window"
	case PhaseLaunch:
		return "launch"
	case PhaseWalk:
		return "walk"
	case PhaseOther:
		return "other"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// epoch anchors the monotonic clock; nanotime reads are differences
// against it, so only the monotonic component matters.
var epoch = time.Now()

func nanotime() int64 { return int64(time.Since(epoch)) }

// Phases accumulates sampled per-phase wall time for one or more
// networks (concurrent sweeps may share one profile; all writes are
// atomic). A nil *Phases is valid and free: Begin returns an inactive
// span whose marks are single nil checks.
type Phases struct {
	// every is the sampling period: cycles where cycle%every != 0 are
	// not timed, bounding overhead on the busy path.
	every int64

	nanos   [NumPhases]atomic.Int64
	total   atomic.Int64
	sampled atomic.Int64
}

// DefaultSampleEvery is the phase-timer sampling period used when none
// is given: one cycle in 16 is timed.
const DefaultSampleEvery = 16

// NewPhases builds a profile sampling one cycle in every (<= 0 uses
// DefaultSampleEvery; 1 times every cycle).
func NewPhases(every int) *Phases {
	if every <= 0 {
		every = DefaultSampleEvery
	}
	return &Phases{every: int64(every)}
}

// Span times one sampled Step; the zero Span is inactive and free.
type Span struct {
	p           *Phases
	start, last int64
}

// Begin starts a span for the given cycle. It returns the inactive span
// when p is nil (telemetry off) or the cycle is not sampled.
func (p *Phases) Begin(cycle int64) Span {
	if p == nil || cycle%p.every != 0 {
		return Span{}
	}
	now := nanotime()
	return Span{p: p, start: now, last: now}
}

// Mark attributes the time since the previous mark (or Begin) to ph.
func (s *Span) Mark(ph Phase) {
	if s.p == nil {
		return
	}
	now := nanotime()
	s.p.nanos[ph].Add(now - s.last)
	s.last = now
}

// End closes the span: the residue since the last mark lands in
// PhaseOther and the whole span in the total.
func (s *Span) End() {
	if s.p == nil {
		return
	}
	now := nanotime()
	s.p.nanos[PhaseOther].Add(now - s.last)
	s.p.total.Add(now - s.start)
	s.p.sampled.Add(1)
}

// PhaseStat is one phase's share of the sampled step time.
type PhaseStat struct {
	Phase    string  `json:"phase"`
	Nanos    int64   `json:"nanos"`
	PerCycle float64 `json:"ns_per_cycle"`
	Share    float64 `json:"share"`
}

// PhasesSnapshot is the attribution summary at one instant.
type PhasesSnapshot struct {
	SampledCycles int64       `json:"sampled_cycles"`
	TotalNanos    int64       `json:"total_nanos"`
	Stats         []PhaseStat `json:"phases"`
}

// Snapshot summarises the profile. Phases that never ran are omitted.
func (p *Phases) Snapshot() PhasesSnapshot {
	s := PhasesSnapshot{SampledCycles: p.sampled.Load(), TotalNanos: p.total.Load()}
	for ph := Phase(0); ph < NumPhases; ph++ {
		ns := p.nanos[ph].Load()
		if ns == 0 {
			continue
		}
		st := PhaseStat{Phase: ph.String(), Nanos: ns}
		if s.SampledCycles > 0 {
			st.PerCycle = float64(ns) / float64(s.SampledCycles)
		}
		if s.TotalNanos > 0 {
			st.Share = float64(ns) / float64(s.TotalNanos)
		}
		s.Stats = append(s.Stats, st)
	}
	return s
}

// AttributedFraction is the share of the sampled step time covered by
// named phases (everything except PhaseOther) — the "does the
// attribution table explain the step" figure of merit.
func (s PhasesSnapshot) AttributedFraction() float64 {
	if s.TotalNanos == 0 {
		return 0
	}
	var named int64
	for _, st := range s.Stats {
		if st.Phase != PhaseOther.String() {
			named += st.Nanos
		}
	}
	return float64(named) / float64(s.TotalNanos)
}

// Table renders the time-attribution table: per-phase ns/cycle and the
// share of the measured step time, the data the slim-router work item
// needs to decide what to cut.
func (p *Phases) Table() *stats.Table {
	s := p.Snapshot()
	t := &stats.Table{Columns: []string{"phase", "ns/cycle", "share"}}
	for _, st := range s.Stats {
		t.AddRow(st.Phase, fmt.Sprintf("%.1f", st.PerCycle), fmt.Sprintf("%5.1f%%", st.Share*100))
	}
	if s.SampledCycles > 0 {
		t.AddRow("total",
			fmt.Sprintf("%.1f", float64(s.TotalNanos)/float64(s.SampledCycles)),
			fmt.Sprintf("%5.1f%%", 100.0))
	}
	return t
}

// Register exposes the profile's counters on reg as a labelled
// phastlane_phase_nanos_total series plus the sampled-cycle count.
func (p *Phases) Register(reg *Registry) {
	for ph := Phase(0); ph < NumPhases; ph++ {
		ph := ph
		reg.CounterFunc(
			fmt.Sprintf("phastlane_phase_nanos_total{phase=%q}", ph.String()),
			"sampled wall nanoseconds attributed to each kernel pipeline phase",
			func() float64 { return float64(p.nanos[ph].Load()) })
	}
	reg.CounterFunc("phastlane_phase_sampled_cycles_total",
		"cycles timed by the phase profiler",
		func() float64 { return float64(p.sampled.Load()) })
}

// Instrumentable is implemented by networks whose Step pipeline can
// report per-phase timings. SetPhases(nil) — the default — must cost
// nothing on the step path.
type Instrumentable interface {
	SetPhases(*Phases)
}

// ActiveSetReporter is implemented by networks that maintain an active
// set (both event-driven mesh kernels): ActiveRouters reports its
// current size for the flight recorder and the active-set gauge.
type ActiveSetReporter interface {
	ActiveRouters() int
}

// InvariantChecker is implemented by networks that can audit their own
// structural invariants (busy ⇒ in the active set, live-parcel
// accounting). The check may be O(mesh); the watchdog calls it only at
// flush boundaries, never per cycle.
type InvariantChecker interface {
	CheckInvariants() error
}
