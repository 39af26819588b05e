// Package electrical implements the paper's baseline network (Section 4,
// Table 2): an aggressive input-queued virtual-channel router mesh with
// iSLIP virtual-channel and switch allocation, 10 single-flit VCs per port,
// credit-based flow control with wait-for-tail-credit, a 2-or-3-cycle
// per-hop router latency (pipeline speculation and route lookahead
// assumed), input speedup 4, direct 1-cycle ejection that bypasses the
// crossbar, and Virtual Circuit Tree Multicasting for broadcasts.
//
// The simulator runs on an event-driven kernel: every per-cycle pipeline
// phase walks only the routers that currently hold work (occupied VCs or
// queued NIC entries), so idle routers and empty VCs cost nothing. The
// walk-every-router loop is preserved behind NewReference, whose active
// set is dense, as the reference the differential equivalence suite
// checks the kernel against.
package electrical

import (
	"fmt"
	"math/bits"
	"math/rand"

	"phastlane/internal/fault"
	"phastlane/internal/islip"
	"phastlane/internal/mesh"
	"phastlane/internal/obs"
	"phastlane/internal/photonic"
	"phastlane/internal/power"
	"phastlane/internal/sim"
	"phastlane/internal/stats"
	"phastlane/internal/telemetry"
	"phastlane/internal/topo"
	"phastlane/internal/vctm"
)

// Config parameterises the baseline network. DefaultConfig matches Table 2
// with the three-cycle router; set RouterDelay to 2 for the "very
// aggressive" variant of Section 5.
type Config struct {
	Width, Height int
	// VCs is the number of virtual channels per input port, each
	// holding one flit (Table 2); 1..12 (maxVCs).
	VCs int
	// RouterDelay is the per-hop latency in cycles (2 or 3).
	RouterDelay int
	// InputSpeedup is how many flits one input port may push through
	// the crossbar per cycle (Table 2: 4).
	InputSpeedup int
	// Iterations is the iSLIP iteration count for both allocators.
	Iterations int
	// NICEntries is the injection queue capacity (Table 2: 50).
	NICEntries int
	// Faults, when non-nil and non-empty, arms the shared deterministic
	// fault-injection plan (package fault): dead links, stuck routers and
	// failed VC/NIC slots. Unicast packets route around dead hardware;
	// multicast tree branches stall on it (VCTM trees are pinned).
	// Control corruption does not apply to the electrical baseline. Nil
	// (or an empty plan) costs nothing.
	Faults *fault.Plan
	// LossTimeout, when positive, arms the delivery watchdog: a packet
	// still buffered that many cycles after injection is abandoned and
	// reported lost. 0 disables timeouts; the baseline's credit-based
	// flow control never drops packets on its own.
	LossTimeout int64
	Seed        int64
}

// maxVCs bounds Config.VCs: the five input ports' VCs share one 64-bit
// occupancy mask and form the inputs of one iSLIP VC allocator.
const maxVCs = 64 / mesh.NumDirs

// DefaultConfig returns the Table 2 baseline.
func DefaultConfig() Config {
	return Config{
		Width: 8, Height: 8,
		VCs:          10,
		RouterDelay:  3,
		InputSpeedup: 4,
		Iterations:   2,
		NICEntries:   50,
		Seed:         1,
	}
}

// Validate reports configuration errors. The mesh radix is unbounded
// above: the baseline scales to 32x32 and 64x64 meshes (the scaling-study
// configurations) with per-cycle cost proportional to active routers, not
// mesh size.
func (c Config) Validate() error {
	if c.Width < 2 || c.Height < 2 {
		return fmt.Errorf("electrical: mesh %dx%d too small", c.Width, c.Height)
	}
	if c.VCs < 1 || c.VCs > maxVCs {
		return fmt.Errorf("electrical: VCs %d outside 1..%d", c.VCs, maxVCs)
	}
	if c.RouterDelay < 2 {
		return fmt.Errorf("electrical: router delay %d below the 2-cycle floor", c.RouterDelay)
	}
	if c.InputSpeedup < 1 || c.Iterations < 1 || c.NICEntries < 1 {
		return fmt.Errorf("electrical: bad speedup/iterations/NIC (%d/%d/%d)",
			c.InputSpeedup, c.Iterations, c.NICEntries)
	}
	if c.LossTimeout < 0 {
		return fmt.Errorf("electrical: negative loss timeout %d", c.LossTimeout)
	}
	if err := c.Faults.Validate(c.Width, c.Height); err != nil {
		return err
	}
	return nil
}

// epacket is one logical packet (a single flit). Multicast packets carry
// their VCTM tree and are replicated in-network at branch routers; all
// replicas share one epacket, tracked by refs. Packets are pooled on the
// network (pktFree) and recycled when the last reference drops.
type epacket struct {
	msgID uint64
	dst   mesh.NodeID // unicast destination; ignored when tree != nil
	tree  *vctm.Tree
	// born is the injection cycle, the delivery watchdog's age base.
	born int64
	// refs counts live holders: the NIC entry or VC slot owning the
	// packet plus every in-transit link arrival.
	refs int
}

// vcState is one single-flit virtual channel.
type vcState struct {
	pkt     *epacket
	age     int
	deliver bool // pending ejection to the local node
	// bit is this VC's position port*VCs+vc in its router's masks and
	// in the VC allocators' input numbering.
	bit uint8
	// dirs has bit d set while a replication toward link direction d
	// is pending (at most one per direction); outVC[d] is the
	// downstream VC VA reserved for it, valid while held[d] has bit.
	dirs     uint8
	outVC    [mesh.NumLinkDirs]int8
	reserved bool
}

func (v *vcState) empty() bool { return v.pkt == nil }

// erouter is one baseline router: five input ports (N, E, S, W, local
// injection) of VCs single-flit channels, per-output-port VC allocators,
// and a switch allocator with input speedup. vcs is indexed by bit, and
// every mask numbers VCs the same way:
//   - occupied: the VC holds a packet (set in fill, cleared in freeIfDone),
//     so the per-cycle phases visit only occupied VCs;
//   - free: the VC is empty, unreserved and past its credit round-trip
//     (cleared by VA's reserve and by fill, set from credits and by
//     losePacket's release);
//   - credits: the VC was freed this cycle; Step moves these bits to free
//     after the age phase, so the VC is reservable from the next cycle
//     (wait-for-tail-credit);
//   - want[d]: a replication toward d is pending without a downstream VC;
//   - held[d]: a replication toward d holds one.
type erouter struct {
	vcs        []vcState
	occupied   uint64
	free       uint64
	credits    uint64
	want, held [mesh.NumLinkDirs]uint64
	va         [mesh.NumLinkDirs]*islip.Allocator
	sa         *islip.Allocator
	nic        []*epacket
}

// arrival is a flit in transit on a link, applied at the next cycle.
type arrival struct {
	node mesh.NodeID
	port mesh.Dir
	vc   int
	pkt  *epacket
}

// Network is the electrical baseline simulator implementing sim.Network.
type Network struct {
	cfg Config
	// top is the routing view of the fabric: next-hop lookups, VCTM
	// tree routes and fault detours all compile through it, while m
	// stays the concrete mesh geometry the wormhole datapath (ports,
	// credits, link walk) is built around.
	top     topo.Topology
	det     topo.FaultRouting
	m       *mesh.Mesh
	energy  power.Electrical
	rng     *rand.Rand
	routers []erouter
	transit []arrival
	trees   map[string]*vctm.Tree
	// bcast caches the full-broadcast VCTM tree per source so the common
	// broadcast inject skips the map-key allocation of vctm.Key.
	bcast []*vctm.Tree
	// leakagePJ is every router's leakage over one cycle.
	leakagePJ float64
	// pktFree is the epacket free list, so the steady-state Step loop
	// allocates nothing.
	pktFree []*epacket
	// tracer receives router events when set (SetTracer).
	tracer func(obs.Event)
	// phases receives sampled per-phase step timings when set
	// (SetPhases); nil — the default — costs one branch per Step.
	phases *telemetry.Phases

	// active holds every busy router (busy ⇒ member); the pipeline
	// phases walk it, listed into nodes once per Step. Dense on
	// NewReference. See DESIGN.md §10.
	active mesh.ActiveSet
	nodes  []mesh.NodeID

	// Fault injection and the delivery watchdog (fault.go). faults is
	// nil unless a plan is armed; watchEvery > 0 arms the watchdog.
	faults      *fault.Injector
	routeUsable mesh.LinkUsable
	frDirs      []mesh.Dir
	lossHandler func(sim.Loss)
	nackHandler func(src mesh.NodeID)
	watchEvery  int64
	nextScan    int64
	starveAfter int64

	// credited lists the routers with credits pending this cycle, each
	// once; sized for every router in New, so it never grows.
	credited []mesh.NodeID

	run   stats.Run
	cycle int64
}

var (
	_ sim.Network                 = (*Network)(nil)
	_ obs.Traceable               = (*Network)(nil)
	_ telemetry.Instrumentable    = (*Network)(nil)
	_ telemetry.ActiveSetReporter = (*Network)(nil)
	_ telemetry.InvariantChecker  = (*Network)(nil)
)

// SetTracer installs a callback invoked synchronously for every router
// event, using the shared obs vocabulary (buffer occupancy, ejection, NIC
// launch, VC allocation, switch traversal, credit stalls, multicast tree
// forks); nil disables tracing — the default, costing nothing when off.
func (n *Network) SetTracer(f func(obs.Event)) { n.tracer = f }

// SetPhases installs a sampled per-phase step profile (telemetry); nil
// disables it — the default, costing one branch per Step.
func (n *Network) SetPhases(p *telemetry.Phases) { n.phases = p }

// ActiveRouters reports the size of the active set (every router, on
// NewReference).
func (n *Network) ActiveRouters() int { return n.active.Len() }

// CheckInvariants audits the active-set contract busy(node) ⇒ member
// for every router, and every VC against its router's masks: occupied ⇔
// holding a packet; free ⇔ empty, unreserved and not among credits,
// which hold only empty, unreserved VCs; want[d] | held[d] ⇔ dirs bit d,
// with want[d] and held[d] disjoint and set only on occupied VCs. It is
// O(nodes·VCs) and meant for watchdog flush boundaries, never the
// per-cycle path.
func (n *Network) CheckInvariants() error {
	for node := range n.routers {
		id, r := mesh.NodeID(node), &n.routers[node]
		if n.busy(id) && !n.active.Has(id) {
			return fmt.Errorf("electrical: router %d busy (occupied %#x, nic %d) but not in the active set",
				node, r.occupied, len(r.nic))
		}
		var occ, free uint64
		var dirs [mesh.NumLinkDirs]uint64
		for i := range r.vcs {
			vc := &r.vcs[i]
			if !vc.empty() {
				occ |= 1 << i
			} else if !vc.reserved {
				free |= 1 << i
			}
			for d := range dirs {
				dirs[d] |= uint64(vc.dirs>>d&1) << i
			}
		}
		if occ != r.occupied || free&^r.credits != r.free || r.credits&^free != 0 {
			return fmt.Errorf("electrical: router %d masks occupied %#x free %#x credits %#x, VCs say %#x and empty, unreserved %#x",
				node, r.occupied, r.free, r.credits, occ, free)
		}
		for d := range dirs {
			if w, h := r.want[d], r.held[d]; w|h != dirs[d] || w&h != 0 || (w|h)&^occ != 0 {
				return fmt.Errorf("electrical: router %d direction %d masks want %#x held %#x, VCs say %#x",
					node, d, w, h, dirs[d])
			}
		}
	}
	return nil
}

// busy reports whether node holds work: an occupied VC or a queued NIC
// entry. Every pipeline phase acts only on such routers.
func (n *Network) busy(node mesh.NodeID) bool {
	return n.routers[node].occupied != 0 || len(n.routers[node].nic) > 0
}

// emit reports an event to the tracer, if any.
func (n *Network) emit(kind obs.Kind, msgID uint64, node mesh.NodeID, dir mesh.Dir) {
	if n.tracer != nil {
		n.tracer(obs.Event{Cycle: n.cycle, Kind: kind, MsgID: msgID, Node: node, Dir: dir})
	}
}

// New builds a baseline network on the event-driven kernel; it panics on
// invalid configuration.
func New(cfg Config) *Network {
	return newNetwork(cfg, false)
}

// NewReference builds a baseline network whose pipeline phases walk every
// router every cycle: its active set is dense. It runs the same Step code
// as New and exists for differential testing — the equivalence suite and
// FuzzElectricalEquivalence drive it in lockstep with New and assert
// bit-identical results. Production callers want New. It panics on
// invalid configuration, like New.
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
		det:     top,
		m:       m,
		energy:  power.NewElectrical(),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		routers: make([]erouter, m.Nodes()),
		trees:   make(map[string]*vctm.Tree),
		bcast:   make([]*vctm.Tree, m.Nodes()),
		active:  mesh.NewActiveSet(m.Nodes(), dense),
		// Sized for every router, so the walk list never grows.
		nodes:    make([]mesh.NodeID, 0, m.Nodes()),
		credited: make([]mesh.NodeID, 0, m.Nodes()),
	}
	n.leakagePJ = power.LeakagePJ(n.energy.LeakageWPerRouter, m.Nodes(), 1, photonic.DefaultClockGHz)
	// Every router's VCs and NIC queue are carved from two slabs: one
	// allocation each, not one per router, which keeps New cheap on
	// large meshes.
	perRouter := mesh.NumDirs * cfg.VCs
	vcSlab := make([]vcState, m.Nodes()*perRouter)
	nicSlab := make([]*epacket, m.Nodes()*cfg.NICEntries)
	for i := range n.routers {
		r := &n.routers[i]
		r.vcs, vcSlab = vcSlab[:perRouter:perRouter], vcSlab[perRouter:]
		for b := range r.vcs {
			r.vcs[b].bit = uint8(b)
		}
		r.free = 1<<perRouter - 1
		// The NIC queue is bounded; give it its full backing up front.
		r.nic, nicSlab = nicSlab[:0:cfg.NICEntries], nicSlab[cfg.NICEntries:]
		for p := 0; p < mesh.NumLinkDirs; p++ {
			r.va[p] = islip.New(mesh.NumDirs*cfg.VCs, cfg.VCs, 1, cfg.Iterations)
		}
		r.sa = islip.New(mesh.NumDirs, mesh.NumLinkDirs, cfg.InputSpeedup, cfg.Iterations)
	}
	n.faultInit()
	return n
}

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// Nodes implements sim.Network.
func (n *Network) Nodes() int { return n.m.Nodes() }

// Run implements sim.Network.
func (n *Network) Run() *stats.Run { return &n.run }

// NICFree implements sim.Network. A stuck router's NIC accepts nothing;
// failed injection-queue slots reduce the reported capacity.
func (n *Network) NICFree(node mesh.NodeID) int {
	f := n.cfg.NICEntries - len(n.routers[node].nic)
	if n.faults != nil {
		if n.faults.NodeStuck(n.cycle, node) {
			return 0
		}
		f -= n.faults.LostSlots(n.cycle, node, mesh.Local)
	}
	if f < 0 {
		return 0
	}
	return f
}

// Quiescent implements sim.Network. It checks every router: the harness
// loops never poll it, so it stays off the per-cycle path.
func (n *Network) Quiescent() bool {
	if len(n.transit) > 0 {
		return false
	}
	for node := range n.routers {
		if n.busy(mesh.NodeID(node)) {
			return false
		}
	}
	return true
}

// getPacket takes an epacket from the free list (or allocates one) and
// resets it; the caller sets all fields.
func (n *Network) getPacket() *epacket {
	if k := len(n.pktFree); k > 0 {
		p := n.pktFree[k-1]
		n.pktFree = n.pktFree[:k-1]
		*p = epacket{}
		return p
	}
	return &epacket{}
}

// dropRef releases one reference to p, returning it to the free list when
// the last holder lets go. Callers must not touch p afterwards.
func (n *Network) dropRef(p *epacket) {
	p.refs--
	if p.refs == 0 {
		n.pktFree = append(n.pktFree, p)
	}
}

// broadcastTree returns the cached full-broadcast tree for src when dsts is
// exactly "every node but src" in ascending order (the shape the sim
// harness emits), or nil so the caller falls back to the keyed cache. The
// per-source cache avoids vctm.Key's string allocation on the hot inject
// path of broadcast-heavy workloads.
func (n *Network) broadcastTree(src mesh.NodeID, dsts []mesh.NodeID) *vctm.Tree {
	nodes := n.m.Nodes()
	if len(dsts) != nodes-1 {
		return nil
	}
	want := mesh.NodeID(0)
	for _, d := range dsts {
		if want == src {
			want++
		}
		if d != want {
			return nil
		}
		want++
	}
	if t := n.bcast[src]; t != nil {
		return t
	}
	t := vctm.Build(n.top, src, dsts)
	n.bcast[src] = t
	return t
}

// Inject implements sim.Network. Broadcasts become a single packet with a
// cached VCTM tree, replicated at branch routers. The source router joins
// the active set.
func (n *Network) Inject(m sim.Message) {
	if free := n.NICFree(m.Src); free <= 0 {
		panic(fmt.Sprintf("electrical: inject into full NIC at node %d (%d free entries; check NICFree before Inject)", m.Src, free))
	}
	n.run.Injected++
	n.emit(obs.KindInject, m.ID, m.Src, mesh.Local)
	p := n.getPacket()
	p.msgID = m.ID
	p.born = n.cycle
	p.refs = 1
	switch {
	case len(m.Dsts) == 1:
		if m.Dsts[0] == m.Src {
			panic("electrical: self-directed message")
		}
		p.dst = m.Dsts[0]
	case len(m.Dsts) > 1:
		if tree := n.broadcastTree(m.Src, m.Dsts); tree != nil {
			p.tree = tree
			break
		}
		key := vctm.Key(m.Src, m.Dsts)
		tree, ok := n.trees[key]
		if !ok {
			tree = vctm.Build(n.top, m.Src, m.Dsts)
			n.trees[key] = tree
		}
		p.tree = tree
	default:
		panic("electrical: message without destinations")
	}
	n.routers[m.Src].nic = append(n.routers[m.Src].nic, p)
	n.active.Add(m.Src)
}

// fill loads a packet into an empty VC, computing its replication set (the
// onward directions, each wanting a downstream VC, and whether it ejects
// locally).
func (n *Network) fill(vc *vcState, p *epacket, at mesh.NodeID) {
	var dirs uint8
	deliver := false
	if p.tree != nil {
		for _, d := range p.tree.Children(at) {
			dirs |= 1 << d
		}
		deliver = p.tree.Deliver(at)
	} else if at == p.dst {
		deliver = true
	} else if d, ok := n.nextDir(at, p.dst); ok {
		dirs = 1 << d
	}
	// An unreachable unicast destination leaves the VC with no work;
	// the fill call-sites reap it through the loss path when a plan is
	// armed (reapStranded).
	vc.pkt = p
	vc.age = 0
	vc.deliver = deliver
	vc.dirs = dirs
	vc.reserved = false
	r := &n.routers[at]
	r.occupied |= 1 << vc.bit
	r.free &^= 1 << vc.bit
	for ; dirs != 0; dirs &= dirs - 1 {
		r.want[bits.TrailingZeros8(dirs)] |= 1 << vc.bit
	}
}

// Step implements sim.Network: apply link arrivals, eject, inject, run VC
// allocation then switch allocation, launch winners, age VCs. Deliveries
// are appended to buf (see sim.Network for the buffer-ownership contract).
//
// The five pipeline phases walk one node list in ascending ID order: only
// busy routers under New, the full mesh under NewReference. Because every
// phase already no-ops on routers without work, the two walks are
// behaviourally identical — the differential equivalence suite pins this,
// event for event. No router turns busy during the phases (arrivals land
// at the start of the next Step), so one list serves all five.
func (n *Network) Step(buf []sim.Delivery) []sim.Delivery {
	sp := n.phases.Begin(n.cycle)
	if n.watchEvery > 0 {
		n.faultStep()
	}
	sp.Mark(telemetry.PhaseWatchdog)
	n.applyArrivals()
	sp.Mark(telemetry.PhaseArrivals)
	nodes := n.pruneActive()
	sp.Mark(telemetry.PhaseActiveSet)
	buf = n.ejectPhase(buf, nodes)
	sp.Mark(telemetry.PhaseEject)
	n.injectPhase(nodes)
	sp.Mark(telemetry.PhaseInject)
	n.allocateVCs(nodes)
	sp.Mark(telemetry.PhaseVCAlloc)
	n.allocateSwitch(nodes)
	sp.Mark(telemetry.PhaseSwitch)
	n.agePhase(nodes)
	for _, node := range n.credited {
		r := &n.routers[node]
		r.free |= r.credits
		r.credits = 0
	}
	n.credited = n.credited[:0]
	sp.Mark(telemetry.PhaseAge)
	n.run.LeakagePJ += n.leakagePJ
	n.cycle++
	sp.End()
	return buf
}

// pruneActive lists this cycle's phase walk: the active-set members in
// ascending order, except members that went idle, which leave the set
// (the dense set keeps them, so NewReference walks every router).
func (n *Network) pruneActive() []mesh.NodeID {
	members := n.active.Members(n.nodes[:0])
	nodes := members[:0] // compacts in place: writes trail reads
	for _, node := range members {
		if !n.busy(node) && n.active.Remove(node) {
			continue
		}
		nodes = append(nodes, node)
	}
	n.nodes = nodes
	return nodes
}

// applyArrivals moves last cycle's link traversals into their reserved
// downstream VCs (phase 1). Receiving routers join the active set before
// this cycle's phase walks.
func (n *Network) applyArrivals() {
	for _, a := range n.transit {
		vc := &n.routers[a.node].vcs[int(a.port)*n.cfg.VCs+a.vc]
		if !vc.empty() || !vc.reserved {
			panic("electrical: arrival into non-reserved VC")
		}
		n.active.Add(a.node)
		n.fill(vc, a.pkt, a.node)
		n.run.ElectricalEnergyPJ += n.energy.BufferWritePJ
		n.emit(obs.KindBuffer, a.pkt.msgID, a.node, a.port)
		if a.pkt.tree != nil && bits.OnesCount8(vc.dirs) > 1 {
			n.emit(obs.KindTreeFork, a.pkt.msgID, a.node, mesh.Local)
		}
		if n.faults != nil {
			n.reapStranded(vc, a.node)
		}
	}
	n.transit = n.transit[:0]
}

// ejectPhase delivers packets to their local nodes one cycle after they
// entered the router, bypassing the crossbar (phase 2).
func (n *Network) ejectPhase(buf []sim.Delivery, nodes []mesh.NodeID) []sim.Delivery {
	for _, node := range nodes {
		if n.faults != nil && n.faults.NodeStuck(n.cycle, node) {
			continue
		}
		r := &n.routers[node]
		for occ := r.occupied; occ != 0; occ &= occ - 1 {
			vc := &r.vcs[bits.TrailingZeros64(occ)]
			if !vc.deliver || vc.age < 1 {
				continue
			}
			buf = append(buf, sim.Delivery{MsgID: vc.pkt.msgID, Dst: node})
			n.run.ElectricalEnergyPJ += n.energy.BufferReadPJ
			n.emit(obs.KindEject, vc.pkt.msgID, node, mesh.Local)
			vc.deliver = false
			n.freeIfDone(node, vc)
		}
	}
	return buf
}

// injectPhase moves each NIC head into the lowest free local-port VC, one
// per node per cycle (phase 3).
func (n *Network) injectPhase(nodes []mesh.NodeID) {
	base := int(mesh.Local) * n.cfg.VCs
	for _, node := range nodes {
		r := &n.routers[node]
		if len(r.nic) == 0 {
			continue
		}
		if n.faults != nil && n.faults.NodeStuck(n.cycle, node) {
			continue
		}
		local := r.free >> base & (1<<n.cfg.VCs - 1)
		if local == 0 {
			if n.nackHandler != nil {
				// NIC head stalled with no free local VC: the credit
				// protocol's backpressure, reported as a congestion
				// nack against the stalling node (its own traffic is
				// what is queued here).
				n.nackHandler(node)
			}
			continue
		}
		vc := &r.vcs[base+bits.TrailingZeros64(local)]
		pkt := r.nic[0]
		copy(r.nic, r.nic[1:])
		r.nic = r.nic[:len(r.nic)-1]
		n.fill(vc, pkt, node)
		n.run.ElectricalEnergyPJ += n.energy.BufferWritePJ
		n.emit(obs.KindLaunch, pkt.msgID, node, mesh.Local)
		if pkt.tree != nil && bits.OnesCount8(vc.dirs) > 1 {
			n.emit(obs.KindTreeFork, pkt.msgID, node, mesh.Local)
		}
		if n.faults != nil {
			n.reapStranded(vc, node)
		}
	}
}

// agePhase ages occupied VCs (phase 6). A stuck router's pipeline is
// frozen, so its VCs do not age while the fault is active.
func (n *Network) agePhase(nodes []mesh.NodeID) {
	for _, node := range nodes {
		if n.faults != nil && n.faults.NodeStuck(n.cycle, node) {
			continue
		}
		r := &n.routers[node]
		for occ := r.occupied; occ != 0; occ &= occ - 1 {
			r.vcs[bits.TrailingZeros64(occ)].age++
		}
	}
}

// freeIfDone releases a VC whose packet has no pending work; its credit
// returns to upstream VA one cycle later (wait-for-tail-credit). The VC's
// reference to the packet drops, recycling it once no transit arrival
// holds it either. node is the router owning vc.
func (n *Network) freeIfDone(node mesh.NodeID, vc *vcState) {
	if vc.deliver || vc.dirs != 0 {
		return
	}
	n.dropRef(vc.pkt)
	vc.pkt = nil
	vc.age = 0
	r := &n.routers[node]
	r.occupied &^= 1 << vc.bit
	if r.credits == 0 {
		n.credited = append(n.credited, node)
	}
	r.credits |= 1 << vc.bit
}

// allocateVCs runs the per-output-port iSLIP VC allocators (phase 4).
// Output d's requesters are want[d], and every free downstream VC takes
// that same request mask, so outputs without requests or credits skip the
// matching entirely.
func (n *Network) allocateVCs(nodes []mesh.NodeID) {
	for _, node := range nodes {
		if n.faults != nil && n.faults.NodeStuck(n.cycle, node) {
			continue
		}
		r := &n.routers[node]
		for out, want := range r.want {
			if want == 0 {
				continue
			}
			dir := mesh.Dir(out)
			next, ok := n.m.Neighbor(node, dir)
			if !ok {
				continue
			}
			// No reservations across a dead link; packets wanting it
			// wait (multicast) or get rerouted (rerouteFaults).
			if n.faults != nil && n.faults.LinkDown(n.cycle, node, dir) {
				continue
			}
			down := &n.routers[next]
			base := int(dir.Opposite()) * n.cfg.VCs
			// Failed buffer slots mask the highest-numbered VCs of the
			// downstream port for new reservations. Overlapping slot
			// faults can sum past the VC count.
			limit := n.cfg.VCs
			if n.faults != nil {
				limit = max(0, limit-n.faults.LostSlots(n.cycle, next, dir.Opposite()))
			}
			free := down.free >> base & (1<<limit - 1)
			if free == 0 {
				// Credit starvation: packets want this output but
				// every downstream VC is occupied, reserved or inside
				// its credit round-trip.
				n.emit(obs.KindCreditStall, 0, node, dir)
				continue
			}
			var req [maxVCs]uint64
			for f := free; f != 0; f &= f - 1 {
				req[bits.TrailingZeros64(f)] = want
			}
			matched, in := r.va[out].Match(req[:n.cfg.VCs])
			for ; matched != 0; matched &= matched - 1 {
				outVC := bits.TrailingZeros64(matched)
				vc := &r.vcs[in[outVC]]
				vc.outVC[out] = int8(outVC)
				r.want[out] &^= 1 << vc.bit
				r.held[out] |= 1 << vc.bit
				down.vcs[base+outVC].reserved = true
				down.free &^= 1 << (base + outVC)
				n.run.ElectricalEnergyPJ += n.energy.ArbitrationPJ
				n.emit(obs.KindVCAlloc, vc.pkt.msgID, node, dir)
			}
		}
	}
}

// allocateSwitch runs the iSLIP switch allocator (input speedup 4) and
// launches the granted flits onto their links (phase 5).
func (n *Network) allocateSwitch(nodes []mesh.NodeID) {
	ready := n.cfg.RouterDelay - 1
	portVCs := uint64(1)<<n.cfg.VCs - 1
	for _, node := range nodes {
		if n.faults != nil && n.faults.NodeStuck(n.cycle, node) {
			continue
		}
		r := &n.routers[node]
		// ripe holds the VCs aged through the pipeline. An input port
		// requests an output when one of its ripe VCs holds a
		// downstream VC there. A dead output link takes no requests: a
		// held VC keeps its reservation until the link heals or the
		// watchdog reclaims the packet.
		var ripe uint64
		for occ := r.occupied; occ != 0; occ &= occ - 1 {
			if i := bits.TrailingZeros64(occ); r.vcs[i].age >= ready {
				ripe |= 1 << i
			}
		}
		var req [mesh.NumLinkDirs]uint64
		for out, held := range r.held {
			held &= ripe
			if held == 0 || n.faults != nil && n.faults.LinkDown(n.cycle, node, mesh.Dir(out)) {
				continue
			}
			for p := 0; p < mesh.NumDirs; p++ {
				if held>>(p*n.cfg.VCs)&portVCs != 0 {
					req[out] |= 1 << p
				}
			}
		}
		matched, in := r.sa.Match(req[:])
		for ; matched != 0; matched &= matched - 1 {
			out := bits.TrailingZeros64(matched)
			dir := mesh.Dir(out)
			// Send the oldest ripe VC of the granted input port that
			// holds this output, the lowest on ties.
			cands := r.held[out] & ripe & (portVCs << (in[out] * n.cfg.VCs))
			best := bits.TrailingZeros64(cands)
			for c := cands & (cands - 1); c != 0; c &= c - 1 {
				if i := bits.TrailingZeros64(c); r.vcs[i].age > r.vcs[best].age {
					best = i
				}
			}
			vc := &r.vcs[best]
			next, ok := n.m.Neighbor(node, dir)
			if !ok {
				panic("electrical: traversal off mesh edge")
			}
			vc.pkt.refs++ // the transit arrival is a new holder
			n.transit = append(n.transit, arrival{
				node: next, port: dir.Opposite(), vc: int(vc.outVC[out]), pkt: vc.pkt,
			})
			vc.dirs &^= 1 << out
			r.held[out] &^= 1 << best
			n.run.ElectricalEnergyPJ += n.energy.BufferReadPJ + n.energy.CrossbarPJ +
				n.energy.LinkPJ + n.energy.ArbitrationPJ
			n.run.LinkTraversals++
			n.emit(obs.KindSwitch, vc.pkt.msgID, node, dir)
			n.freeIfDone(node, vc)
		}
	}
}
