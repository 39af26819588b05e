package core

import (
	"fmt"
	"math/rand"

	"phastlane/internal/fault"
	"phastlane/internal/mesh"
	"phastlane/internal/packet"
	"phastlane/internal/photonic"
	"phastlane/internal/power"
	"phastlane/internal/sim"
	"phastlane/internal/stats"
	"phastlane/internal/telemetry"
	"phastlane/internal/topo"
)

// parcel is one physical Phastlane packet: a unicast message or one
// multicast column-sweep of a broadcast. It lives in exactly one electrical
// buffer (or the NIC) between transmission attempts.
type parcel struct {
	msgID uint64
	op    packet.Op
	src   mesh.NodeID
	dst   mesh.NodeID // final destination (sweep end for multicast)
	// owner is the node currently responsible for delivery: the
	// original source, or the last router that buffered the parcel.
	owner mesh.NodeID
	// control and launch describe the remaining route from owner.
	// routed marks them as what resegment builds from owner toward
	// remaining: set where that route is built, cleared where owner or
	// remaining changes, so a bypass relaunch rebuilds only stale routes.
	control packet.Control
	launch  mesh.Dir
	routed  bool
	// remaining lists the multicast destinations not yet served, in
	// sweep order. Nil for unicast parcels. It is a read-only window
	// sliding forward over the Delivers of the network's cached sweep.
	remaining []mesh.NodeID
	multicast bool
	retries   int
	// born is the injection cycle, the delivery watchdog's age base.
	born int64
	// eligibleAt gates relaunch (buffer turnaround, drop backoff);
	// enqueuedAt records when the parcel entered its current queue
	// (for the oldest-first arbiter).
	eligibleAt, enqueuedAt int64
	// skipAt marks the parcel as passed over by this cycle's arbiter
	// (its output port was already granted), replacing the per-router
	// skip set the launch loop used to allocate each cycle.
	skipAt int64
}

// outcome of one transmission attempt, resolved within the launch cycle and
// acted on at the start of the next (the drop-signal window).
type outcome int

const (
	outcomePending  outcome = iota
	outcomeSafe             // buffered downstream; the parcel lives on
	outcomeRetired          // delivered; the parcel is finished
	outcomeDropped          // drop signal returns to the owner
	outcomeComplete         // dropped, but no deliveries remained
)

// launchRecord remembers a transmission so the owner's buffer slot can be
// released (or the parcel requeued) one cycle later.
type launchRecord struct {
	p       *parcel
	q       *pqueue
	control packet.Control // pre-launch control, restored on drop
	launch  mesh.Dir
	result  outcome
}

// pqueue is one electrical buffer: a FIFO with a capacity that also counts
// slots reserved by in-flight launches awaiting their drop window.
type pqueue struct {
	items    []*parcel
	reserved int
	cap      int // negative = unbounded
}

func (q *pqueue) occupancy() int { return len(q.items) + q.reserved }

func (q *pqueue) free() int {
	if q.cap < 0 {
		return 1 << 30
	}
	f := q.cap - q.occupancy()
	if f < 0 {
		return 0
	}
	return f
}

// headEligible returns the first launchable parcel, or nil.
func (q *pqueue) headEligible(cycle int64) *parcel {
	for _, p := range q.items {
		if p.eligibleAt <= cycle {
			return p
		}
	}
	return nil
}

// take removes p from the queue and reserves its slot for the drop window.
func (q *pqueue) take(p *parcel) {
	for i, it := range q.items {
		if it == p {
			q.items = append(q.items[:i], q.items[i+1:]...)
			q.reserved++
			return
		}
	}
	panic("core: take of parcel not in queue")
}

// router holds the five electrical buffers (N, E, S, W input ports plus the
// local NIC). Its rotating-priority launch pointer is derived from the
// cycle (rotation), so an idle router has no state to advance.
type router struct {
	queues [mesh.NumDirs]pqueue
}

// busy reports whether the router holds a parcel in any buffer: the only
// state launch acts on.
func (r *router) busy() bool {
	for d := range r.queues {
		if len(r.queues[d].items) > 0 {
			return true
		}
	}
	return false
}

// Network is the Phastlane simulator. Create with New; drive with Inject
// and Step (the sim.Network interface).
type Network struct {
	cfg Config
	// top is the routing view of the fabric; all route compilation
	// (control words, sweep rebuilds, fault detours) goes through it.
	// m is the concrete geometry the optical walk steps across — the
	// Phastlane datapath itself is a 2D-mesh design (predecoded compass
	// control groups, column broadcast sweeps), so the physics stays on
	// the concrete mesh while routing is interface-shaped.
	top    topo.Topology
	enc    topo.ControlEncoder
	det    topo.FaultRouting
	m      *mesh.Mesh
	energy power.Optical
	rng    *rand.Rand
	// segmentPJ[links][taps] is energy.TransmitSegmentPJ(links, taps) for
	// every segment a launch can cover: at most min(MaxHops, MaxGroups)
	// links, with fewer taps than links. leakagePJ is every router's
	// leakage over one cycle.
	segmentPJ [packet.MaxGroups + 1][packet.MaxGroups]float64
	leakagePJ float64

	routers []router
	// active holds every busy router (busy ⇒ member), so launch walks
	// only routers with parcels; see DESIGN.md §10.
	active mesh.ActiveSet
	// claims[node*4+dir] holds the cycle in which the directed link
	// out of node toward dir was last used; a link carries one packet
	// per cycle.
	claims []int64
	// pending holds launches awaiting their drop window.
	pending []launchRecord
	// live counts parcels anywhere in the system.
	live int
	// tracer receives router events when set (SetTracer).
	tracer func(Event)
	// phases receives sampled per-phase step timings when set
	// (SetPhases); nil — the default — costs one branch per Step.
	phases *telemetry.Phases

	// Fault injection and the delivery layer (fault.go). faults is nil
	// unless a plan is armed: every hot-path consultation hides behind
	// that one nil check. watchEvery > 0 arms the delivery watchdog
	// (fault plan, or LossTimeout without one).
	faults      *fault.Injector
	routeUsable mesh.LinkUsable
	frDirs      []mesh.Dir
	lossHandler func(sim.Loss)
	nackHandler func(src mesh.NodeID)
	watchEvery  int64
	nextScan    int64
	starveAfter int64

	// Free lists and per-cycle scratch, reused across Step calls so the
	// steady-state simulation loop performs no allocation. parcelFree
	// and flightFree pool the two hot-path object kinds; flights is the
	// registry of flight objects lent out this cycle; walkActive and
	// walkCont are the wavefront/contender scratch of walk; sweepDirs
	// backs multicast route rebuilds; launchNodes lists the active set
	// for launch. bcast caches each source's broadcast sweeps, built on
	// its first broadcast; parcels read them through remaining and never
	// write them.
	parcelFree  []*parcel
	flightFree  []*flight
	flights     []*flight
	walkActive  []*flight
	walkCont    []*flight
	sweepDirs   []mesh.Dir
	launchNodes []mesh.NodeID
	bcast       [][]packet.MulticastMessage

	run   stats.Run
	cycle int64
}

var (
	_ sim.Network                 = (*Network)(nil)
	_ telemetry.Instrumentable    = (*Network)(nil)
	_ telemetry.ActiveSetReporter = (*Network)(nil)
	_ telemetry.InvariantChecker  = (*Network)(nil)
)

// New builds a Phastlane network whose launch stage visits only routers
// holding parcels. It panics on invalid configuration (a programming
// error, not a runtime condition).
func New(cfg Config) *Network {
	return newNetwork(cfg, false)
}

// NewReference builds a Phastlane network whose launch stage visits every
// router every cycle: its active set is dense. It runs the same Step code
// as New and exists for differential testing (equivalence_test.go);
// production callers want New.
func NewReference(cfg Config) *Network {
	return newNetwork(cfg, true)
}

// newNetwork is the shared constructor behind New and NewReference.
func newNetwork(cfg Config, dense bool) *Network {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	top := topo.NewMesh2D(cfg.Width, cfg.Height)
	m := top.Mesh()
	n := &Network{
		cfg:     cfg,
		top:     top,
		enc:     top,
		det:     top,
		m:       m,
		energy:  cfg.energyModel(),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		routers: make([]router, m.Nodes()),
		active:  mesh.NewActiveSet(m.Nodes(), dense),
		claims:  make([]int64, m.Nodes()*mesh.NumLinkDirs),
		// Sized for every router, so the walk list never grows.
		launchNodes: make([]mesh.NodeID, 0, m.Nodes()),
		bcast:       make([][]packet.MulticastMessage, m.Nodes()),
	}
	for i := range n.claims {
		n.claims[i] = -1
	}
	for links := 1; links <= min(cfg.MaxHops, packet.MaxGroups); links++ {
		for taps := 0; taps < links; taps++ {
			n.segmentPJ[links][taps] = n.energy.TransmitSegmentPJ(links, taps)
		}
	}
	n.leakagePJ = power.LeakagePJ(n.energy.LeakageWPerRouter, m.Nodes(), 1, photonic.DefaultClockGHz)
	// Bounded queues get their full backing up front so the
	// steady-state loop never grows them, carved from one slab so New
	// allocates once for all of them.
	perRouter := cfg.NICEntries
	if cfg.BufferEntries > 0 {
		perRouter += mesh.NumLinkDirs * cfg.BufferEntries
	}
	slab := make([]*parcel, m.Nodes()*perRouter)
	for i := range n.routers {
		for d := 0; d < mesh.NumDirs; d++ {
			q := &n.routers[i].queues[d]
			q.cap = cfg.BufferEntries
			if mesh.Dir(d) == mesh.Local {
				q.cap = cfg.NICEntries
			}
			if q.cap > 0 {
				q.items, slab = slab[:0:q.cap], slab[q.cap:]
			}
		}
	}
	n.faultInit()
	return n
}

// getParcel takes a parcel from the free list (or allocates one) and
// resets it to a fresh state.
func (n *Network) getParcel() *parcel {
	if k := len(n.parcelFree); k > 0 {
		p := n.parcelFree[k-1]
		n.parcelFree = n.parcelFree[:k-1]
		*p = parcel{skipAt: -1}
		return p
	}
	return &parcel{skipAt: -1}
}

// putParcel returns a finished parcel to the free list. Callers must not
// touch the parcel afterwards: the next Inject may reuse it.
func (n *Network) putParcel(p *parcel) { n.parcelFree = append(n.parcelFree, p) }

// getFlight takes a zeroed flight from the free list or allocates one.
func (n *Network) getFlight() *flight {
	if k := len(n.flightFree); k > 0 {
		f := n.flightFree[k-1]
		n.flightFree = n.flightFree[:k-1]
		*f = flight{}
		return f
	}
	return &flight{}
}

// Config returns the network's configuration.
func (n *Network) Config() Config { return n.cfg }

// Nodes implements sim.Network.
func (n *Network) Nodes() int { return n.m.Nodes() }

// Run implements sim.Network.
func (n *Network) Run() *stats.Run { return &n.run }

// Cycle returns the current simulation time.
func (n *Network) Cycle() int64 { return n.cycle }

// NICFree implements sim.Network. Under an armed fault plan a stuck
// router's NIC accepts nothing and failed injection-queue slots reduce
// the reported capacity.
func (n *Network) NICFree(node mesh.NodeID) int {
	free := n.routers[node].queues[mesh.Local].free()
	if n.faults != nil {
		if n.faults.NodeStuck(n.cycle, node) {
			return 0
		}
		free -= n.faults.LostSlots(n.cycle, node, mesh.Local)
		if free < 0 {
			free = 0
		}
	}
	return free
}

// Quiescent implements sim.Network.
func (n *Network) Quiescent() bool { return n.live == 0 }

// Inject implements sim.Network. A single-destination message becomes one
// unicast parcel; a broadcast (every node except the source) becomes up to
// 16 multicast column-sweep parcels assembled by the NIC, which together
// are charged against the injection queue. It panics when the NIC is full
// or the destination set is neither unicast nor full broadcast. The
// message's Dsts slice is not retained.
func (n *Network) Inject(m sim.Message) {
	nic := &n.routers[m.Src].queues[mesh.Local]
	if free := n.NICFree(m.Src); free <= 0 {
		panic(fmt.Sprintf("core: inject into full NIC at node %d (%d free entries; check NICFree before Inject)", m.Src, free))
	}
	n.run.Injected++
	n.emit(EventInject, m.ID, m.Src, mesh.Local)
	switch {
	case len(m.Dsts) == 1:
		if m.Dsts[0] == m.Src {
			panic("core: self-directed message")
		}
		n.enqueueUnicast(nic, m, m.Dsts[0])
	case len(m.Dsts) == n.m.Nodes()-1:
		if n.cfg.UnicastBroadcast {
			// Ablation: a broadcast as 63 independent unicasts.
			for _, dst := range m.Dsts {
				n.enqueueUnicast(nic, m, dst)
			}
			return
		}
		sweeps := n.bcast[m.Src]
		if sweeps == nil {
			sweeps = packet.BuildBroadcast(n.m, m.Src, n.cfg.MaxHops)
			n.bcast[m.Src] = sweeps
		}
		for i := range sweeps {
			msg := &sweeps[i]
			p := n.getParcel()
			p.msgID, p.op, p.src = m.ID, m.Op, m.Src
			p.owner = m.Src
			p.control, p.launch = msg.Control, msg.Launch
			p.remaining = msg.Delivers
			p.dst = p.remaining[len(p.remaining)-1]
			p.multicast = true
			p.born = n.cycle
			p.eligibleAt, p.enqueuedAt = n.cycle, n.cycle
			nic.items = append(nic.items, p)
			n.live++
		}
		n.active.Add(m.Src)
	default:
		panic(fmt.Sprintf("core: message with %d destinations: only unicast or full broadcast supported", len(m.Dsts)))
	}
}

// enqueueUnicast builds one unicast parcel from the free list and queues
// it on the source NIC.
func (n *Network) enqueueUnicast(nic *pqueue, m sim.Message, dst mesh.NodeID) {
	ctl, launch := n.enc.EncodeControl(m.Src, dst)
	ctl.MarkInterims(n.cfg.MaxHops)
	p := n.getParcel()
	p.msgID, p.op, p.src, p.dst = m.ID, m.Op, m.Src, dst
	p.owner = m.Src
	p.control, p.launch, p.routed = ctl, launch, true
	p.born = n.cycle
	p.eligibleAt, p.enqueuedAt = n.cycle, n.cycle
	nic.items = append(nic.items, p)
	n.live++
	n.active.Add(m.Src)
}

// Step implements sim.Network: resolve last cycle's drop window, launch new
// transmissions under rotating/fixed priority, walk them through the mesh,
// and account leakage. Deliveries are appended to buf per the sim.Network
// buffer-ownership contract; the warmed-up loop performs no allocation.
func (n *Network) Step(buf []sim.Delivery) []sim.Delivery {
	sp := n.phases.Begin(n.cycle)
	if n.watchEvery > 0 {
		n.faultStep()
	}
	sp.Mark(telemetry.PhaseWatchdog)
	n.resolveDropWindow()
	sp.Mark(telemetry.PhaseDropWindow)
	flights := n.launch()
	sp.Mark(telemetry.PhaseLaunch)
	buf = n.walk(flights, buf)
	sp.Mark(telemetry.PhaseWalk)
	// All flights have landed (delivered, buffered, or dropped); return
	// them to the free list for the next cycle.
	n.flightFree = append(n.flightFree, n.flights...)
	n.flights = n.flights[:0]
	n.run.LeakagePJ += n.leakagePJ
	n.cycle++
	sp.End()
	return buf
}

// SetPhases installs a sampled per-phase step profile (telemetry); nil
// disables it — the default, costing one branch per Step.
func (n *Network) SetPhases(p *telemetry.Phases) { n.phases = p }

// ActiveRouters implements telemetry.ActiveSetReporter: the size of the
// launch stage's active set (every router, on NewReference).
func (n *Network) ActiveRouters() int { return n.active.Len() }

// CheckInvariants audits the active set and live-parcel conservation:
// every busy router is an active-set member, and every live parcel is
// either queued in some router buffer or held by a pending launch record
// whose drop signal has not yet been resolved. Meant for watchdog flush
// boundaries (between Steps), never the per-cycle path.
func (n *Network) CheckInvariants() error {
	queued := 0
	for i := range n.routers {
		r := &n.routers[i]
		if r.busy() && !n.active.Has(mesh.NodeID(i)) {
			return fmt.Errorf("core: router %d busy but not in the active set", i)
		}
		for d := range r.queues {
			queued += len(r.queues[d].items)
		}
	}
	dropped := 0
	for _, rec := range n.pending {
		if rec.result == outcomeDropped {
			dropped++
		}
	}
	if queued+dropped != n.live {
		return fmt.Errorf("core: live-parcel accounting: %d queued + %d pending-dropped != %d live",
			queued, dropped, n.live)
	}
	return nil
}

// resolveDropWindow acts on the previous cycle's launches: safe launches
// release their buffer slot; dropped parcels re-enter the owner's queue
// with randomised exponential backoff. Parcels whose journey finished
// (delivered, or dropped with nothing left to deliver) return to the free
// list here, once nothing references them any more.
func (n *Network) resolveDropWindow() {
	for _, rec := range n.pending {
		switch rec.result {
		case outcomeSafe:
			rec.q.reserved--
		case outcomeRetired, outcomeComplete:
			rec.q.reserved--
			n.putParcel(rec.p)
		case outcomeDropped:
			rec.q.reserved--
			p := rec.p
			p.retries++
			n.run.Retries++
			if n.nackHandler != nil {
				// A drop notice returning to the owner is the
				// protocol's congestion nack; attribute it to the
				// original sender.
				n.nackHandler(p.src)
			}
			if n.cfg.RetryLimit > 0 && p.retries > n.cfg.RetryLimit {
				// Retry budget exhausted: the delivery layer
				// abandons the parcel instead of requeueing it.
				n.loseParcel(p, sim.LossRetryBudget)
				continue
			}
			if !n.cfg.Bypass {
				// Restore the pre-launch route; with bypass
				// the relaunch rebuilds it anyway.
				p.control = rec.control
				p.launch = rec.launch
			}
			p.eligibleAt = n.cycle + 1 + n.backoff(p.retries)
			rec.q.items = append(rec.q.items, p)
			// A drop leaves the parcel with the router that
			// launched it.
			n.active.Add(p.owner)
			n.emit(EventRetry, p.msgID, p.owner, p.launch)
		default:
			panic("core: unresolved launch outcome")
		}
	}
	n.pending = n.pending[:0]
}

// backoff returns a randomised exponential delay for the given retry
// count: uniform over [0, min(BackoffBase<<(retries-1), BackoffMax)].
// The doubling clamps to BackoffMax before it can overflow, so the
// window is well-defined for any retry count and any configured maximum.
func (n *Network) backoff(retries int) int64 {
	window := n.cfg.BackoffBase
	for i := 1; i < retries && window < n.cfg.BackoffMax; i++ {
		if window > n.cfg.BackoffMax/2 {
			window = n.cfg.BackoffMax
			break
		}
		window *= 2
	}
	if window > n.cfg.BackoffMax {
		window = n.cfg.BackoffMax
	}
	return int64(n.rng.Intn(window + 1))
}

// launch runs each busy router's rotating-priority arbitration over its
// five queues: up to four packets per cycle, one per output port (Section
// 2.1.1). The arbiter rotates across the queues, taking at most one grant
// per queue per round, and keeps cycling while ports and candidates remain,
// so a single busy queue (e.g. a NIC holding a 16-sweep broadcast) can use
// several output ports in one cycle without starving the others.
//
// It walks the active set in ascending node order, the dense loop's order,
// and clears each member it leaves idle. An idle router launches nothing,
// and its rotating pointer is a function of the cycle (rotation), so not
// visiting it changes nothing.
func (n *Network) launch() []*flight {
	flights := n.flights[:0]
	n.launchNodes = n.active.Members(n.launchNodes[:0])
	for _, node := range n.launchNodes {
		if n.faults != nil && n.faults.NodeStuck(n.cycle, node) {
			continue
		}
		r := &n.routers[node]
		var granted [mesh.NumLinkDirs]bool
		grants := 0
		order := n.queueOrder(r, node)
		for round := 0; round < mesh.NumLinkDirs && grants < mesh.NumLinkDirs; round++ {
			progressed := false
			for k := 0; k < mesh.NumDirs && grants < mesh.NumLinkDirs; k++ {
				q := &r.queues[order[k]]
				p := n.launchCandidate(q, granted[:])
				if p == nil {
					continue
				}
				granted[p.launch] = true
				grants++
				progressed = true
				q.take(p)
				rec := launchRecord{p: p, q: q, control: p.control, launch: p.launch, result: outcomePending}
				n.pending = append(n.pending, rec)
				f := n.getFlight()
				f.p, f.rec = p, len(n.pending)-1
				f.at, f.travel = node, p.launch
				f.control = p.control
				n.claim(node, p.launch)
				flights = append(flights, f)
				n.emit(EventLaunch, p.msgID, node, p.launch)
				// Energy: laser power for the actual segment
				// (links and taps covered this cycle) plus
				// modulator drive and a buffer read for the
				// launching queue.
				links, taps := p.control.Segment()
				n.run.OpticalEnergyPJ += n.segmentPJ[links][taps]
				n.run.ElectricalEnergyPJ += n.energy.ModulatePJ + n.energy.BufferReadPJ
			}
			if !progressed {
				break
			}
		}
		if !r.busy() {
			n.active.Remove(node)
		}
	}
	n.flights = flights
	return flights
}

// rotation returns the rotating arbiter's first queue at node this cycle.
// The pointer advances once each cycle the router is not stuck, starting
// at 0, so it is the count of those cycles modulo the queue count.
func (n *Network) rotation(node mesh.NodeID) int {
	return int((n.cycle - n.faults.StuckCycles(n.cycle, node)) % mesh.NumDirs)
}

// queueOrder returns the order in which router r's five queues (at node)
// are offered grants this cycle, per the configured relaunch arbiter.
func (n *Network) queueOrder(r *router, node mesh.NodeID) [mesh.NumDirs]int {
	var order [mesh.NumDirs]int
	switch n.cfg.Arbiter {
	case ArbOldestFirst:
		// Queues whose oldest eligible parcel has waited longest go
		// first; empty queues last. Sorted in place with a stable
		// insertion sort over the five fixed slots: equivalent to
		// sort.SliceStable, without its per-cycle allocations.
		var ages [mesh.NumDirs]int64
		for i := 0; i < mesh.NumDirs; i++ {
			order[i] = i
			ages[i] = -1 << 62
			if p := r.queues[i].headEligible(n.cycle); p != nil {
				ages[i] = n.cycle - p.enqueuedAt
			}
		}
		for i := 1; i < mesh.NumDirs; i++ {
			for j := i; j > 0 && ages[order[j]] > ages[order[j-1]]; j-- {
				order[j], order[j-1] = order[j-1], order[j]
			}
		}
	case ArbLongestQueue:
		var occ [mesh.NumDirs]int
		for i := 0; i < mesh.NumDirs; i++ {
			order[i] = i
			occ[i] = len(r.queues[i].items)
		}
		for i := 1; i < mesh.NumDirs; i++ {
			for j := i; j > 0 && occ[order[j]] > occ[order[j-1]]; j-- {
				order[j], order[j-1] = order[j-1], order[j]
			}
		}
	default: // ArbRotating
		rotate := n.rotation(node)
		for i := 0; i < mesh.NumDirs; i++ {
			order[i] = (rotate + i) % mesh.NumDirs
		}
	}
	return order
}

// launchCandidate returns the first eligible parcel of q whose output port
// is still free, or nil. Parcels whose port is taken are marked (skipAt)
// so later rounds do not re-resegment them; the mark is the current cycle,
// so it expires on its own without per-cycle bookkeeping.
func (n *Network) launchCandidate(q *pqueue, granted []bool) *parcel {
	for _, p := range q.items {
		if p.eligibleAt > n.cycle || p.skipAt == n.cycle {
			continue
		}
		if n.faults != nil {
			// Route around the currently-dead hardware; a parcel
			// with no usable route stays queued with a probe delay.
			if !n.faultPrepare(p) {
				continue
			}
		} else if n.cfg.Bypass && !p.routed {
			n.resegment(p)
		}
		if p.launch == mesh.Local {
			panic("core: parcel launches toward its own node")
		}
		if granted[p.launch] {
			p.skipAt = n.cycle
			continue
		}
		return p
	}
	return nil
}

// resegment rebuilds the parcel's remaining route from its current owner,
// implementing the Section 2.1.3 bypass: a buffering router may skip the
// original interim nodes and head as far as MaxHops allows.
func (n *Network) resegment(p *parcel) {
	p.routed = true
	if p.multicast {
		p.control, p.launch = n.buildSweepFrom(p.owner, p.remaining, n.cfg.MaxHops)
		return
	}
	ctl, launch := n.enc.EncodeControl(p.owner, p.dst)
	ctl.MarkInterims(n.cfg.MaxHops)
	p.control, p.launch = ctl, launch
}

// buildSweepFrom reconstructs a multicast sweep control from node src
// through the remaining delivery targets, which by construction lie in one
// column in sweep order and are approached dimension-order: an L that
// packet.EncodeRoute encodes in closed form, tapping from remaining[0] on.
// It runs on the bypass relaunch hot path and leaves the route's links in
// the network's sweepDirs scratch, which faultPrepare's probe walks.
func (n *Network) buildSweepFrom(src mesh.NodeID, remaining []mesh.NodeID, maxHops int) (packet.Control, mesh.Dir) {
	if len(remaining) == 0 {
		panic("core: multicast relaunch with no remaining destinations")
	}
	if remaining[0] == src {
		panic("core: multicast relaunch targeting the owner itself")
	}
	h, across, vert, approach := n.m.Legs(src, remaining[0])
	dirs := n.top.AppendRoute(n.sweepDirs[:0], src, remaining[0])
	cur := remaining[0]
	for i, next := range remaining[1:] {
		if n.top.HopDistance(cur, next) != 1 {
			panic(fmt.Sprintf("core: non-contiguous multicast remainder %d->%d", cur, next))
		}
		d := n.top.PortAt(cur, next, 0)
		if i == 0 && approach == 0 {
			vert = d // a purely horizontal approach: the sweep sets the direction
		}
		if d != vert {
			panic(fmt.Sprintf("core: multicast remainder goes %s at %d, not the sweep's %s", d, cur, vert))
		}
		dirs = append(dirs, d)
		cur = next
	}
	n.sweepDirs = dirs
	ctl, launch := packet.EncodeRoute(h, across, vert, len(dirs)-across, across+approach-1)
	ctl.MarkInterims(maxHops)
	return ctl, launch
}

// claim marks the directed link out of node toward d used this cycle.
func (n *Network) claim(node mesh.NodeID, d mesh.Dir) {
	n.claims[int(node)*mesh.NumLinkDirs+int(d)] = n.cycle
}

// claimed reports whether the link is already used this cycle.
func (n *Network) claimed(node mesh.NodeID, d mesh.Dir) bool {
	return n.claims[int(node)*mesh.NumLinkDirs+int(d)] == n.cycle
}
