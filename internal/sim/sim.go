// Package sim provides the common simulation harness driving both the
// Phastlane optical network and the electrical baseline: the Network
// interface, rate-driven synthetic runs (Fig. 9), dependency-aware trace
// replay (Figs. 10 and 11), and saturation sweeps.
package sim

import (
	"cmp"
	"fmt"
	"slices"

	"phastlane/internal/cc"
	"phastlane/internal/mesh"
	"phastlane/internal/obs"
	"phastlane/internal/packet"
	"phastlane/internal/provenance"
	"phastlane/internal/stats"
	"phastlane/internal/telemetry"
	"phastlane/internal/trace"
	"phastlane/internal/traffic"
)

// Message is a logical network message handed to a Network. A broadcast
// message lists every destination; the network chooses its own multicast
// mechanism (Phastlane column sweeps, VCTM trees).
type Message struct {
	ID   uint64
	Src  mesh.NodeID
	Dsts []mesh.NodeID // one entry for unicast
	Op   packet.Op
}

// Delivery reports one (message, destination) arrival.
type Delivery struct {
	MsgID uint64
	Dst   mesh.NodeID
}

// Network is the cycle-driven interface both simulators implement.
type Network interface {
	// Nodes returns the node count.
	Nodes() int
	// NICFree returns the free injection-queue entries at node n.
	NICFree(n mesh.NodeID) int
	// Inject places a message into its source NIC. It panics when the
	// NIC is full; callers must check NICFree first. The network does
	// not retain m.Dsts, so callers may reuse the slice across calls.
	Inject(m Message)
	// Step advances one clock cycle, appends this cycle's deliveries
	// to buf, and returns the extended slice (the same contract as the
	// built-in append).
	//
	// Buffer ownership: buf belongs to the caller. The network never
	// retains it past the call and never reads buf[:len(buf)], so a
	// harness can truncate and resubmit one buffer every cycle
	// (buf = net.Step(buf[:0])) and the steady-state loop performs no
	// allocation. Passing nil is valid and allocates as needed.
	Step(buf []Delivery) []Delivery
	// Quiescent reports whether no packet is queued or in flight.
	Quiescent() bool
	// Run returns the accumulating counters. Latency is recorded by
	// the harness, not the network.
	Run() *stats.Run
}

// Traceable is obs.Traceable under the harness's name: networks that
// report router-level events through the shared obs vocabulary. The
// harness attaches observability through it, so a network that
// implements it gets tracing everywhere, with no per-simulator wiring.
type Traceable = obs.Traceable

// LossReason classifies why the delivery layer abandoned a message.
type LossReason int

// Loss reasons.
const (
	// LossRetryBudget: the per-message retry budget was exhausted.
	LossRetryBudget LossReason = iota
	// LossTimeout: the message aged past the loss-detection timeout.
	LossTimeout
	// LossUnreachable: no usable route to the destination existed.
	LossUnreachable
)

// String names the reason.
func (r LossReason) String() string {
	switch r {
	case LossRetryBudget:
		return "retry-budget"
	case LossTimeout:
		return "timeout"
	case LossUnreachable:
		return "unreachable"
	default:
		return fmt.Sprintf("LossReason(%d)", int(r))
	}
}

// Loss reports that a network's delivery layer has given up on part of a
// message: Count destinations of MsgID will never receive it. Node is
// where the message was abandoned (its last owner).
type Loss struct {
	MsgID  uint64
	Node   mesh.NodeID
	Count  int
	Reason LossReason
}

// LossReporting is implemented by networks whose delivery layer can
// abandon messages (fault plans, retry budgets, loss timeouts). The
// handler is invoked synchronously from Step, once per abandoned parcel;
// nil disables reporting. The harness attaches itself through this
// interface so lost messages resolve instead of stalling the drain phase.
type LossReporting interface {
	SetLossHandler(func(Loss))
}

// CongestionReporting is implemented by networks whose NIC layer can
// attribute congestion nacks to the responsible sender: an optical drop
// notice returning to the parcel's owner, or an electrical injection
// stall (NIC head blocked with no free local VC). The handler is invoked
// synchronously from Step, once per nack; nil disables reporting (the
// default, costing nothing). The harness attaches the congestion
// governor's Nack sink through this interface.
type CongestionReporting interface {
	SetNackHandler(func(src mesh.NodeID))
}

// Result summarises one harness run.
type Result struct {
	Run stats.Run
	// OfferedRate is packets/node/cycle presented (synthetic runs).
	OfferedRate float64
	// Offered counts packets the traffic generator presented during a
	// synthetic run, whether or not the NIC accepted them. The chain
	// Delivered <= Injected <= Offered always holds: accepted packets
	// are a subset of offered ones and deliveries a subset of those.
	Offered int64
	// Makespan is the delivery cycle of the last message (trace runs).
	Makespan int64
	// Saturated is set when the network failed to drain or its
	// accepted throughput fell well short of the offered rate.
	Saturated bool
	// Lost counts measured messages the network's delivery layer
	// abandoned and reported (see LossReporting); always zero for
	// lossless configurations.
	Lost int64
	// Unresolved counts measured messages still outstanding when the
	// drain phase gave up: neither delivered nor reported lost.
	Unresolved int64
	// Paced counts offered packets the congestion governor declined to
	// admit (synthetic runs with RateConfig.CC); always zero ungoverned.
	Paced int64
	// DeliveredBySender counts fully-delivered measured messages per
	// source node (synthetic runs only) — the input to Jain's fairness
	// index in the governed studies.
	DeliveredBySender []int64
	// LatencyByOp breaks trace-replay latency down by message class
	// (broadcast requests vs unicast replies vs writebacks).
	LatencyByOp map[packet.Op]*stats.Latency
}

// messageState tracks outstanding destinations and injection time for
// latency accounting.
type messageState struct {
	inject    int64
	remaining int
	// src is the injecting node, kept for per-sender delivery accounting
	// and the congestion governor's ack/loss attribution.
	src mesh.NodeID
	// lost marks a message with at least one abandoned delivery; its
	// completion is counted as a loss, not a latency sample.
	lost bool
	// measured marks a message injected during the measure phase —
	// the only ones latency stats, loss counts, and the drain phase
	// consider. Governed runs track warmup messages too (with measured
	// false) so the governor's ack stream is symmetric with its nack
	// stream from cycle zero.
	measured bool
}

// ledger is the message bookkeeping both run modes share: the state
// table, the loss handler, the completion path that feeds the latency
// stats, the loss count and every attached hook, and the end-of-cycle
// sampler and telemetry work. RunRate and RunTrace keep only their
// injection policies and one per-completion callback.
type ledger struct {
	net  Network
	nrun *stats.Run
	res  *Result
	// states[i] tracks message base+i. IDs are dense in both run modes, so
	// the table is a slice, not a map: per-message map inserts used to
	// dominate steady-state allocation. base == 0 means nothing has been
	// recorded yet (IDs start at 1). A replay allocates the table for its
	// whole trace up front, since it injects out of ID order; a rate run
	// appends in ID order, and slide drops the resolved records before lo
	// off the front.
	states []messageState
	base   uint64
	lo     int
	cycle  int64
	// injected counts every message handed to the network, measured the
	// measured ones, and inFlight the measured ones not yet resolved.
	injected, measured int64
	inFlight           int
	// This cycle's accepted injections, completions and latency sum.
	cycleInjected, completed int
	latencySum               float64
	deliveries               []Delivery // reused across cycles (Step buffer contract)
	// done, when set, runs once per resolved measured message after the
	// ledger's own accounting; st.lost tells a loss from a delivery.
	done func(id uint64, st *messageState, lat int64)

	sampler *obs.Sampler
	tel     *telemetry.Run
	asr     telemetry.ActiveSetReporter
	ic      telemetry.InvariantChecker
	prov    *provenance.Tracker
	gov     *cc.Governor
}

// newLedger attaches every hook of a run to net, each through the one
// optional interface the network may implement: the event tap (the
// collector's tracer teed with the provenance tracker's Observe), the
// telemetry phase profile and views, the governor's nack sink, and the
// ledger's own loss handler. Nil hooks cost nothing.
func newLedger(net Network, res *Result, c *obs.Collector, tel *telemetry.Run, prov *provenance.Tracker, gov *cc.Governor) *ledger {
	l := &ledger{net: net, nrun: net.Run(), res: res, tel: tel, prov: prov, gov: gov}
	var pt func(obs.Event)
	if prov != nil {
		pt = prov.Observe
	}
	if tr := obs.Tee(c.Tracer(), pt); tr != nil {
		if t, ok := net.(Traceable); ok {
			t.SetTracer(tr)
		}
	}
	if c != nil {
		l.sampler = c.Sampler
	}
	if tel != nil {
		if in, ok := net.(telemetry.Instrumentable); ok {
			in.SetPhases(tel.Phases)
		}
		l.asr, _ = net.(telemetry.ActiveSetReporter)
		l.ic, _ = net.(telemetry.InvariantChecker)
	}
	// Fabrics without nacks (fabsim is lossless in-network) are still
	// governed through the ack/loss path.
	if cr, ok := net.(CongestionReporting); ok && gov != nil {
		cr.SetNackHandler(gov.Nack)
	}
	if lr, ok := net.(LossReporting); ok {
		lr.SetLossHandler(l.lose)
	}
	return l
}

// inject hands m to the network; its latency counts from cycle at. The
// ledger records measured messages, and unmeasured ones too when a
// governor needs their acks.
func (l *ledger) inject(m Message, at int64, measured bool) {
	if measured && l.prov != nil {
		// Before net.Inject, so the network's inject event (and
		// everything after) lands in the packet's log.
		l.prov.Inject(m.ID, m.Src, at)
	}
	l.net.Inject(m)
	l.injected++
	l.cycleInjected++
	if !measured && l.gov == nil {
		return
	}
	if l.base == 0 {
		l.base = m.ID
	}
	st := messageState{inject: at, remaining: len(m.Dsts), src: m.Src, measured: measured}
	if i := m.ID - l.base; i < uint64(len(l.states)) {
		l.states[i] = st // a replay's table, allocated up front
	} else {
		l.states = append(l.states, st) // rate runs record IDs in order
		l.slide()
	}
	if measured {
		l.measured++
		l.inFlight++
	}
}

// slideFloor is the fewest resolved records slide moves the table's front
// past at once, so short runs and light loads never copy.
const slideFloor = 1024

// slide advances lo past the resolved records (remaining == 0) at the
// front of a rate run's table and, once they fill half the table and at
// least slideFloor, copies the live tail to the front and adds lo to
// base. The table then holds about twice the span from the oldest
// unresolved message to the newest; a message that never resolves pins
// lo, and the table grows as the run does.
func (l *ledger) slide() {
	for l.lo < len(l.states) && l.states[l.lo].remaining == 0 {
		l.lo++
	}
	if l.lo >= slideFloor && 2*l.lo >= len(l.states) {
		l.states = l.states[:copy(l.states, l.states[l.lo:])]
		l.base += uint64(l.lo)
		l.lo = 0
	}
}

// state returns the record of an outstanding message, or nil for one the
// ledger does not track (unrecorded warmup traffic) or has resolved,
// including one slid off the table's front.
func (l *ledger) state(id uint64) *messageState {
	i := id - l.base // IDs below base wrap to an out-of-range index
	if i >= uint64(len(l.states)) || l.states[i].remaining == 0 {
		return nil
	}
	return &l.states[i]
}

// step advances the network one cycle, resolves its deliveries, and does
// the end-of-cycle sampler and telemetry work.
func (l *ledger) step() {
	l.deliveries = l.net.Step(l.deliveries[:0])
	l.completed, l.latencySum = 0, 0
	for _, d := range l.deliveries {
		if st := l.state(d.MsgID); st != nil {
			st.remaining--
			if st.remaining == 0 {
				l.finish(d.MsgID, st)
			}
		}
	}
	if l.sampler != nil {
		l.sampler.Tick(l.cycle, len(l.deliveries), l.completed, l.latencySum, l.cycleInjected, l.nrun.Drops)
	}
	l.cycle++
	if l.tel != nil {
		l.tel.Tick(l.cycleInjected, len(l.deliveries), l.nrun.Drops, l.nrun.Retries, l.inFlight)
		if l.cycle%l.tel.FlushEvery == 0 {
			l.flush()
		}
	}
	l.cycleInjected = 0
}

// lose is the network's loss handler. Abandoned destinations resolve like
// deliveries, so the drain phase does not wait for packets that will
// never arrive and a replay's dependents proceed.
func (l *ledger) lose(loss Loss) {
	st := l.state(loss.MsgID)
	if st == nil {
		return
	}
	st.lost = true
	st.remaining -= min(loss.Count, st.remaining)
	if st.remaining == 0 {
		l.finish(loss.MsgID, st)
	}
}

// finish resolves a message with no destination outstanding: as a loss if
// any destination was abandoned, otherwise as one latency sample. The
// governor hears about every message it is tracked for; the stats and
// the other hooks only about measured ones.
func (l *ledger) finish(id uint64, st *messageState) {
	lat := l.cycle - st.inject + 1
	if l.gov != nil {
		if st.lost {
			l.gov.Lost(st.src)
		} else {
			l.gov.Ack(st.src, float64(lat))
		}
	}
	if !st.measured {
		return
	}
	l.inFlight--
	if st.lost {
		l.res.Lost++
		if l.tel != nil {
			l.tel.Lost.Inc()
		}
		if l.prov != nil {
			l.prov.Lost(id)
		}
	} else {
		l.res.Run.Latency.Add(lat)
		l.completed++
		l.latencySum += float64(lat)
		if l.tel != nil {
			l.tel.Latency.Observe(float64(lat))
		}
		if l.prov != nil {
			l.prov.Complete(id, l.cycle)
		}
	}
	if l.done != nil {
		l.done(id, st, lat)
	}
}

// flush drives one watchdog-and-flight-record flush over the measured
// messages.
func (l *ledger) flush() {
	s := telemetry.FlushStats{
		Cycle:         l.cycle,
		Injected:      l.measured,
		Delivered:     int64(l.res.Run.Latency.Count()),
		Lost:          l.res.Lost,
		InFlight:      int64(l.inFlight),
		ActiveRouters: -1,
	}
	if l.asr != nil {
		s.ActiveRouters = l.asr.ActiveRouters()
	}
	if l.ic != nil {
		s.InvariantErr = l.ic.CheckInvariants()
	}
	l.tel.Flush(s)
}

// close ends the run: a closing flush audits conservation over the whole
// run even when it is shorter than a flush period, and the network-side
// counters join the harness's.
func (l *ledger) close() {
	if l.tel != nil {
		l.flush()
	}
	l.res.Run.Injected = l.injected
	l.res.Run.Delivered = int64(l.res.Run.Latency.Count())
	copyCounters(&l.res.Run, l.nrun)
}

// RateConfig controls a synthetic rate-driven run.
type RateConfig struct {
	Pattern traffic.Pattern
	// Rate is packets per node per cycle.
	Rate float64
	// Warmup, Measure: cycles before/while recording latency.
	Warmup, Measure int
	// DrainLimit caps the drain phase after measurement; a network
	// that cannot drain by then is saturated.
	DrainLimit int
	Seed       int64
	// Obs, when non-nil, attaches the observability bundle: its tracer
	// is installed on the network (if the network supports tracing) and
	// its Sampler is fed once per cycle. Nil costs nothing.
	Obs *obs.Collector
	// Telemetry, when non-nil, attaches the live telemetry bundle: the
	// network gets the sampled phase profile (if it supports
	// instrumentation), counters tick once per cycle, and the flight
	// recorder and watchdogs flush every Telemetry.FlushEvery cycles.
	// Nil costs one branch per cycle.
	Telemetry *telemetry.Run
	// Prov, when non-nil, attaches the per-packet latency provenance
	// tracker: its event tap is teed next to the Obs tracer, and the
	// harness reports every measured message's injection, completion
	// and loss so the tracker can decompose end-to-end latency. Nil
	// costs one branch per message event.
	Prov *provenance.Tracker
	// CC, when non-nil, attaches the per-sender congestion governor: it
	// ticks once per injection cycle, gates every injection (a declined
	// packet counts against the offered load like a full NIC, in
	// Result.Paced), receives each measured message's inject→eject
	// latency as an ack, and receives nacks (via CongestionReporting)
	// and losses. Like the network, a governor is bound to one run —
	// build a fresh one per experiment point. Nil costs one branch per
	// cycle and keeps results bit-identical to an ungoverned run.
	CC *cc.Governor
}

// RunRate drives net with Bernoulli pattern traffic and measures average
// packet latency, following the standard warmup / measure / drain
// methodology.
func RunRate(net Network, cfg RateConfig) Result {
	if cfg.Warmup <= 0 {
		cfg.Warmup = 1000
	}
	if cfg.Measure <= 0 {
		cfg.Measure = 4000
	}
	if cfg.DrainLimit <= 0 {
		cfg.DrainLimit = 30000
	}
	inj := traffic.NewInjector(cfg.Pattern, net.Nodes(), cfg.Rate, cfg.Seed)
	res := Result{OfferedRate: cfg.Rate, DeliveredBySender: make([]int64, net.Nodes())}
	gov := cfg.CC
	l := newLedger(net, &res, cfg.Obs, cfg.Telemetry, cfg.Prov, gov)
	l.done = func(_ uint64, st *messageState, _ int64) {
		if !st.lost {
			res.DeliveredBySender[st.src]++
		}
	}
	var nextID uint64
	dsts := make([]mesh.NodeID, 1)
	injectTick := func(measured bool) {
		if gov != nil {
			gov.Tick(l.cycle)
		}
		for _, in := range inj.Tick() {
			res.Offered++
			if gov != nil && !gov.Allow(in.Src) {
				// Governor declined: the packet is paced out, an
				// admission decision rather than a saturation symptom.
				res.Paced++
				continue
			}
			if net.NICFree(in.Src) <= 0 {
				// Source-queue full: the packet is lost to the
				// measurement, a saturation symptom.
				continue
			}
			nextID++
			dsts[0] = in.Dst
			l.inject(Message{ID: nextID, Src: in.Src, Dsts: dsts, Op: packet.OpSynthetic}, l.cycle, measured)
		}
	}

	for i := 0; i < cfg.Warmup; i++ {
		injectTick(false)
		l.step()
	}
	for i := 0; i < cfg.Measure; i++ {
		injectTick(true)
		l.step()
	}
	// Drain: stop injecting, wait for measured packets to arrive.
	for i := 0; i < cfg.DrainLimit && l.inFlight > 0; i++ {
		l.step()
	}
	l.close()
	res.Run.Cycles = int64(cfg.Measure)
	res.Unresolved = int64(l.inFlight)
	// Paced-out packets were an admission decision, not an overload
	// symptom, so the accepted-fraction test measures against what the
	// governor actually presented to the NIC.
	presented := res.Offered - res.Paced
	if l.inFlight > 0 || (presented > 0 && float64(res.Run.Injected) < 0.9*float64(presented)) {
		res.Saturated = true
	}
	return res
}

// copyCounters merges the network-side counters into the harness run.
func copyCounters(dst, src *stats.Run) {
	dst.Drops = src.Drops
	dst.Retries = src.Retries
	dst.Lost = src.Lost
	dst.Unreachable = src.Unreachable
	dst.Corrupt = src.Corrupt
	dst.LinkTraversals = src.LinkTraversals
	dst.BufferedPackets = src.BufferedPackets
	dst.ElectricalEnergyPJ = src.ElectricalEnergyPJ
	dst.OpticalEnergyPJ = src.OpticalEnergyPJ
	dst.LeakagePJ = src.LeakagePJ
}

// ReplayConfig controls dependency-aware trace replay.
type ReplayConfig struct {
	// Limit aborts the replay after this many cycles (0 = 20M).
	Limit int64
	// Obs, when non-nil, attaches the observability bundle as in
	// RateConfig.Obs.
	Obs *obs.Collector
	// Telemetry, when non-nil, attaches the live telemetry bundle as in
	// RateConfig.Telemetry, conservation audit included.
	Telemetry *telemetry.Run
	// Prov, when non-nil, attaches per-packet latency provenance as in
	// RateConfig.Prov. Replay latency is measured from readiness, so a
	// NIC-stall before injection shows up as nic-queue time.
	Prov *provenance.Tracker
}

// RunTrace replays tr on net: each message injects once its EarliestCycle
// has passed, its dependency (if any) has been fully delivered, and its
// think time has elapsed. The result's Makespan is the cycle the last
// message completed - the network-performance figure of merit behind the
// paper's Fig. 10 speedups.
func RunTrace(net Network, tr *trace.Trace, cfg ReplayConfig) (Result, error) {
	if err := tr.Validate(); err != nil {
		return Result{}, err
	}
	if tr.Nodes != net.Nodes() {
		return Result{}, fmt.Errorf("sim: trace has %d nodes, network %d", tr.Nodes, net.Nodes())
	}
	limit := cfg.Limit
	if limit == 0 {
		limit = 20_000_000
	}
	// firstDep/nextDep hold the child adjacency as intrusive linked lists
	// over the (dense, 1-based) message IDs — no per-ID slice or map
	// entry. Built back to front, each list reads in ascending ID order.
	firstDep := make([]uint64, len(tr.Messages)+1)
	nextDep := make([]uint64, len(tr.Messages)+1)
	// Messages whose dependency has resolved wait in due until their
	// ready cycle; due ones move to ready, in ID order, until their NIC
	// has room. A message with an outstanding dependency is in neither.
	due := make(readyHeap, 0, len(tr.Messages))
	ready := make([]readyItem, 0, len(tr.Messages))
	for i := len(tr.Messages) - 1; i >= 0; i-- {
		m := tr.Messages[i]
		if m.Dep == 0 {
			due.push(readyItem{at: m.EarliestCycle, id: m.ID})
		} else {
			nextDep[m.ID] = firstDep[m.Dep]
			firstDep[m.Dep] = m.ID
		}
	}
	res := Result{LatencyByOp: make(map[packet.Op]*stats.Latency)}
	l := newLedger(net, &res, cfg.Obs, cfg.Telemetry, cfg.Prov, nil)
	// Replay IDs are dense from 1 but inject out of order.
	l.base, l.states = 1, make([]messageState, len(tr.Messages))
	// A completed message readies its children: think time from now,
	// never before EarliestCycle. A lost message resolves the same way —
	// its children proceed — but contributes no latency sample, so a
	// faulty replay degrades instead of deadlocking.
	l.done = func(id uint64, st *messageState, lat int64) {
		if !st.lost {
			res.Makespan = l.cycle + 1
			op := tr.Messages[id-1].Op
			ol, ok := res.LatencyByOp[op]
			if !ok {
				ol = &stats.Latency{}
				res.LatencyByOp[op] = ol
			}
			ol.Add(lat)
		}
		for dep := firstDep[id]; dep != 0; dep = nextDep[dep] {
			at := l.cycle + 1 + tr.Messages[dep-1].Think
			if e := tr.Messages[dep-1].EarliestCycle; e > at {
				at = e
			}
			due.push(readyItem{at: at, id: dep})
		}
	}
	// dsts is the injection scratch: one entry for unicasts, everyone
	// but the source for broadcasts. Inject does not retain it.
	dsts := make([]mesh.NodeID, 0, tr.Nodes)

	for left := len(tr.Messages); left > 0 || l.inFlight > 0; {
		if l.cycle >= limit {
			res.Saturated = true
			break
		}
		for len(due) > 0 && due[0].at <= l.cycle {
			it := due.pop()
			i, _ := slices.BinarySearchFunc(ready, it, cmpID)
			ready = slices.Insert(ready, i, it)
		}
		// Inject every ready message whose NIC has room, in ID
		// order per source.
		rest := ready[:0]
		for _, it := range ready {
			m := tr.Messages[it.id-1]
			if net.NICFree(m.Src) <= 0 {
				rest = append(rest, it)
				continue
			}
			dsts = dsts[:0]
			if m.IsBroadcast() {
				for n := 0; n < tr.Nodes; n++ {
					if mesh.NodeID(n) != m.Src {
						dsts = append(dsts, mesh.NodeID(n))
					}
				}
			} else {
				dsts = append(dsts, m.Dst)
			}
			// Latency is measured from readiness (dependency
			// resolved, think time elapsed), so time spent
			// stalled behind a full NIC counts against the
			// network.
			l.inject(Message{ID: it.id, Src: m.Src, Dsts: dsts, Op: m.Op}, it.at, true)
			left--
		}
		ready = rest
		l.step()
	}
	l.close()
	res.Run.Cycles = l.cycle
	return res, nil
}

// readyItem is a replay message whose dependency has resolved: it may
// inject from cycle at on.
type readyItem struct {
	at int64
	id uint64
}

// cmpID orders ready items by message ID, the replay's injection order.
func cmpID(a, b readyItem) int { return cmp.Compare(a.id, b.id) }

// readyHeap is a binary min-heap of ready items on (at, id). It is typed
// because container/heap boxes every item it moves.
type readyHeap []readyItem

func (it readyItem) before(o readyItem) bool {
	return it.at < o.at || (it.at == o.at && it.id < o.id)
}

func (h *readyHeap) push(it readyItem) {
	s := append(*h, it)
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !s[i].before(s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
	*h = s
}

// pop removes and returns the earliest item; the heap must not be empty.
func (h *readyHeap) pop() readyItem {
	s := *h
	top, n := s[0], len(s)-1
	s[0] = s[n]
	s = s[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s[c+1].before(s[c]) {
			c++
		}
		if !s[c].before(s[i]) {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	*h = s
	return top
}

// SweepPoint is one (rate, latency) sample of a saturation sweep.
// Saturated is RunRate's verdict on the point: the network failed to drain
// within DrainLimit, or accepted throughput fell below 90% of the offered
// load. Only the last point of a Sweep can be saturated.
type SweepPoint struct {
	Rate       float64
	AvgLatency float64
	Throughput float64
	Saturated  bool
	// P50, P95, P99 are latency percentiles of the point's measured
	// packets, exposing tail latency next to the mean.
	P50, P95, P99 float64
}

// pointFrom summarises one RunRate result as a sweep point, filling the
// latency percentiles alongside the mean.
func pointFrom(rate float64, r Result, nodes int) SweepPoint {
	return SweepPoint{
		Rate:       rate,
		AvgLatency: r.Run.Latency.Mean(),
		Throughput: r.Run.ThroughputPerNode(nodes),
		Saturated:  r.Saturated,
		P50:        r.Run.Latency.Percentile(50),
		P95:        r.Run.Latency.Percentile(95),
		P99:        r.Run.Latency.Percentile(99),
	}
}

// Sweep draws one latency curve: it runs RunRate at each rate in order,
// on a fresh network from newNet and a fresh pattern from newPattern per
// point, and stops after the first saturated point, which it keeps. Rates
// past that point never run, so the curve is a prefix of rates. cfg
// supplies Warmup, Measure, DrainLimit and Seed, shared by every point;
// Sweep sets Pattern and Rate. cfg must carry no hooks (Obs, Telemetry,
// Prov, CC): each binds to one run, and a sweep is many.
func Sweep(newNet func() Network, newPattern func() traffic.Pattern, rates []float64, cfg RateConfig) []SweepPoint {
	var pts []SweepPoint
	for _, rate := range rates {
		net := newNet()
		cfg.Pattern, cfg.Rate = newPattern(), rate
		r := RunRate(net, cfg)
		pts = append(pts, pointFrom(rate, r, net.Nodes()))
		if r.Saturated {
			break // the curve has left the plot
		}
	}
	return pts
}
