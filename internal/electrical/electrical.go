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
// historical walk-every-router-every-cycle loop is preserved behind
// NewReference as the dense reference implementation the differential
// equivalence suite checks the kernel against (see activeset.go).
package electrical

import (
	"fmt"
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
	// holding one flit (Table 2).
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
	if c.VCs < 1 {
		return fmt.Errorf("electrical: VCs %d", c.VCs)
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

// branch is one pending replication of a packet out of a router.
type branch struct {
	dir   mesh.Dir
	outVC int // downstream VC reserved by VA, or -1
}

// vcState is one single-flit virtual channel.
type vcState struct {
	pkt      *epacket
	age      int
	deliver  bool // pending ejection to the local node
	branches []branch
	// availAt is when the (empty) VC may be reserved again by an
	// upstream VA - the credit round-trip of wait-for-tail-credit.
	availAt  int64
	reserved bool
}

func (v *vcState) empty() bool { return v.pkt == nil }

// erouter is one baseline router: five input ports (N, E, S, W, local
// injection) of VCs single-flit channels, per-output-port VC allocators,
// and a switch allocator with input speedup.
type erouter struct {
	vcs [mesh.NumDirs][]vcState
	va  [mesh.NumLinkDirs]*islip.Allocator
	sa  *islip.Allocator
	nic []*epacket
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
	top    topo.Topology
	det    topo.FaultRouting
	m      *mesh.Mesh
	energy power.Electrical
	rng     *rand.Rand
	routers []erouter
	transit []arrival
	trees   map[string]*vctm.Tree
	// bcast caches the full-broadcast VCTM tree per source so the common
	// broadcast inject skips the map-key allocation of vctm.Key.
	bcast []*vctm.Tree
	// pktFree is the epacket free list; vcReqs/vcFree are the VC
	// allocator's per-call scratch. All exist so the steady-state Step
	// loop allocates nothing.
	pktFree []*epacket
	vcReqs  []bool
	vcFree  []bool
	// tracer receives router events when set (SetTracer).
	tracer func(obs.Event)
	// phases receives sampled per-phase step timings when set
	// (SetPhases); nil — the default — costs one branch per Step.
	phases *telemetry.Phases

	// Event-driven kernel state (activeset.go). dense selects the
	// reference walk-every-router loop (NewReference); allNodes is that
	// walk's 0..Nodes-1 order. occ counts occupied VCs per router;
	// listed, active, activeAdd and activeScratch implement the sorted
	// active set with O(changed routers) maintenance.
	dense         bool
	allNodes      []mesh.NodeID
	occ           []int32
	listed        []bool
	active        []mesh.NodeID
	activeAdd     []mesh.NodeID
	activeScratch []mesh.NodeID

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

// ActiveRouters reports the size of the event-driven active set as of
// the last merge (plus routers activated since); under the dense
// reference kernel it degrades to the ever-active router count.
func (n *Network) ActiveRouters() int { return len(n.active) + len(n.activeAdd) }

// CheckInvariants audits the active-set contract busy(node) ⇒
// listed[node] for every router. It is O(nodes) and meant for watchdog
// flush boundaries, never the per-cycle path.
func (n *Network) CheckInvariants() error {
	for node := range n.routers {
		id := mesh.NodeID(node)
		if n.busy(id) && !n.listed[id] {
			return fmt.Errorf("electrical: router %d busy (occ %d, nic %d) but not active-set-listed",
				node, n.occ[id], len(n.routers[id].nic))
		}
	}
	return nil
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
		vcReqs:  make([]bool, mesh.NumDirs*cfg.VCs),
		vcFree:  make([]bool, cfg.VCs),
		dense:   dense,
		occ:     make([]int32, m.Nodes()),
		listed:  make([]bool, m.Nodes()),
	}
	if dense {
		n.allNodes = make([]mesh.NodeID, m.Nodes())
		for i := range n.allNodes {
			n.allNodes[i] = mesh.NodeID(i)
		}
	}
	for i := range n.routers {
		r := &n.routers[i]
		for p := 0; p < mesh.NumDirs; p++ {
			r.vcs[p] = make([]vcState, cfg.VCs)
			// Pre-size every branch list so a packet's first visit to a
			// cold VC never allocates: at low rates the working set of
			// (router, port, VC) states grows for thousands of cycles,
			// and lazily-grown slices would show up as a steady
			// allocation trickle. A packet forks into at most one branch
			// per link direction.
			for v := range r.vcs[p] {
				r.vcs[p][v].branches = make([]branch, 0, mesh.NumLinkDirs)
			}
		}
		// The NIC queue is bounded; give it its full backing up front.
		r.nic = make([]*epacket, 0, cfg.NICEntries)
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

// Quiescent implements sim.Network. Any router holding work is listed in
// the active set (the busy-implies-listed invariant both kernels
// maintain), so only listed routers need checking — O(active), not
// O(mesh).
func (n *Network) Quiescent() bool {
	if len(n.transit) > 0 {
		return false
	}
	for _, node := range n.active {
		if n.busy(node) {
			return false
		}
	}
	for _, node := range n.activeAdd {
		if n.busy(node) {
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
	n.activate(m.Src)
}

// fill loads a packet into an empty VC, computing its replication set (the
// onward branches and whether it ejects locally) into the VC's reusable
// branch scratch. The VC keeps its branch backing array across occupants so
// the steady-state loop does not allocate.
func (n *Network) fill(vc *vcState, p *epacket, at mesh.NodeID) {
	bs := vc.branches[:0]
	deliver := false
	if p.tree != nil {
		for _, d := range p.tree.Children(at) {
			bs = append(bs, branch{dir: d, outVC: -1})
		}
		deliver = p.tree.Deliver(at)
	} else if at == p.dst {
		deliver = true
	} else if d, ok := n.nextDir(at, p.dst); ok {
		bs = append(bs, branch{dir: d, outVC: -1})
	}
	// An unreachable unicast destination leaves the VC with no work;
	// the fill call-sites reap it through the loss path when a plan is
	// armed (reapStranded).
	vc.pkt = p
	vc.age = 0
	vc.deliver = deliver
	vc.branches = bs
	vc.availAt = 0
	vc.reserved = false
	n.occ[at]++
}

// Step implements sim.Network: apply link arrivals, eject, inject, run VC
// allocation then switch allocation, launch winners, age VCs. Deliveries
// are appended to buf (see sim.Network for the buffer-ownership contract).
//
// The five pipeline phases run over a node list in ascending ID order: the
// full mesh under the dense reference kernel, the sorted active set under
// the event-driven kernel. Because every phase already no-ops on routers
// without work, the two walks are behaviourally identical — the
// differential equivalence suite pins this, event for event.
func (n *Network) Step(buf []sim.Delivery) []sim.Delivery {
	sp := n.phases.Begin(n.cycle)
	if n.watchEvery > 0 {
		n.faultStep()
	}
	sp.Mark(telemetry.PhaseWatchdog)
	n.applyArrivals()
	sp.Mark(telemetry.PhaseArrivals)
	var nodes []mesh.NodeID
	if n.dense {
		nodes = n.allNodes
	} else {
		nodes = n.mergeActive()
	}
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
	sp.Mark(telemetry.PhaseAge)
	n.run.LeakagePJ += power.LeakagePJ(n.energy.LeakageWPerRouter, n.m.Nodes(), 1, photonic.DefaultClockGHz)
	n.cycle++
	sp.End()
	return buf
}

// applyArrivals moves last cycle's link traversals into their reserved
// downstream VCs (phase 1). Receiving routers join the active set before
// the phase walk of this cycle sees them.
func (n *Network) applyArrivals() {
	for _, a := range n.transit {
		vc := &n.routers[a.node].vcs[a.port][a.vc]
		if !vc.empty() || !vc.reserved {
			panic("electrical: arrival into non-reserved VC")
		}
		n.activate(a.node)
		n.fill(vc, a.pkt, a.node)
		n.run.ElectricalEnergyPJ += n.energy.BufferWritePJ
		n.emit(obs.KindBuffer, a.pkt.msgID, a.node, a.port)
		if a.pkt.tree != nil && len(vc.branches) > 1 {
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
		for p := 0; p < mesh.NumDirs; p++ {
			for v := range r.vcs[p] {
				vc := &r.vcs[p][v]
				if vc.empty() || !vc.deliver || vc.age < 1 {
					continue
				}
				buf = append(buf, sim.Delivery{MsgID: vc.pkt.msgID, Dst: node})
				n.run.ElectricalEnergyPJ += n.energy.BufferReadPJ
				n.emit(obs.KindEject, vc.pkt.msgID, node, mesh.Local)
				vc.deliver = false
				n.freeIfDone(node, vc)
			}
		}
	}
	return buf
}

// injectPhase moves each NIC head into a free local-port VC, one per node
// per cycle (phase 3).
func (n *Network) injectPhase(nodes []mesh.NodeID) {
	for _, node := range nodes {
		r := &n.routers[node]
		if len(r.nic) == 0 {
			continue
		}
		if n.faults != nil && n.faults.NodeStuck(n.cycle, node) {
			continue
		}
		injected := false
		for v := range r.vcs[mesh.Local] {
			vc := &r.vcs[mesh.Local][v]
			if !vc.empty() || vc.reserved || vc.availAt > n.cycle {
				continue
			}
			pkt := r.nic[0]
			copy(r.nic, r.nic[1:])
			r.nic = r.nic[:len(r.nic)-1]
			n.fill(vc, pkt, node)
			n.run.ElectricalEnergyPJ += n.energy.BufferWritePJ
			n.emit(obs.KindLaunch, pkt.msgID, node, mesh.Local)
			if pkt.tree != nil && len(vc.branches) > 1 {
				n.emit(obs.KindTreeFork, pkt.msgID, node, mesh.Local)
			}
			if n.faults != nil {
				n.reapStranded(vc, node)
			}
			injected = true
			break
		}
		if !injected && n.nackHandler != nil {
			// NIC head stalled with no free local VC: the credit
			// protocol's backpressure, reported as a congestion nack
			// against the stalling node (its own traffic is what is
			// queued here).
			n.nackHandler(node)
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
		for p := 0; p < mesh.NumDirs; p++ {
			for v := range r.vcs[p] {
				if !r.vcs[p][v].empty() {
					r.vcs[p][v].age++
				}
			}
		}
	}
}

// freeIfDone releases a VC whose packet has no pending work; the credit
// returns to upstream VA one cycle later (wait-for-tail-credit). The VC's
// reference to the packet drops, recycling it once no transit arrival
// holds it either. node is the router owning vc (the active-set occupancy
// count it decrements).
func (n *Network) freeIfDone(node mesh.NodeID, vc *vcState) {
	if vc.deliver || len(vc.branches) > 0 {
		return
	}
	n.dropRef(vc.pkt)
	vc.pkt = nil
	vc.age = 0
	vc.availAt = n.cycle + 1
	n.occ[node]--
}

// allocateVCs runs the per-output-port iSLIP VC allocators (phase 4).
// Requests and free downstream VCs are gathered up front (into network
// scratch) so idle ports skip the matching entirely.
func (n *Network) allocateVCs(nodes []mesh.NodeID) {
	reqs := n.vcReqs
	free := n.vcFree
	for _, node := range nodes {
		if n.faults != nil && n.faults.NodeStuck(n.cycle, node) {
			continue
		}
		r := &n.routers[node]
		for out := 0; out < mesh.NumLinkDirs; out++ {
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
			inPort := dir.Opposite()
			anyReq := false
			for p := 0; p < mesh.NumDirs; p++ {
				for v := range r.vcs[p] {
					want := false
					vc := &r.vcs[p][v]
					if !vc.empty() {
						for _, b := range vc.branches {
							if b.dir == dir && b.outVC < 0 {
								want = true
								break
							}
						}
					}
					reqs[p*n.cfg.VCs+v] = want
					anyReq = anyReq || want
				}
			}
			if !anyReq {
				continue
			}
			// Failed buffer slots mask the highest-numbered VCs of the
			// downstream port for new reservations.
			limit := n.cfg.VCs
			if n.faults != nil {
				limit -= n.faults.LostSlots(n.cycle, next, inPort)
			}
			anyFree := false
			for v := 0; v < n.cfg.VCs; v++ {
				dvc := &down.vcs[inPort][v]
				free[v] = v < limit && dvc.empty() && !dvc.reserved && dvc.availAt <= n.cycle
				anyFree = anyFree || free[v]
			}
			if !anyFree {
				// Credit starvation: packets want this output but
				// every downstream VC is occupied or inside its
				// credit round-trip.
				n.emit(obs.KindCreditStall, 0, node, dir)
				continue
			}
			match := r.va[out].Match(func(in, outVC int) bool {
				return reqs[in] && free[outVC]
			})
			for outVC, in := range match {
				if in < 0 {
					continue
				}
				p, v := in/n.cfg.VCs, in%n.cfg.VCs
				vc := &r.vcs[p][v]
				for i := range vc.branches {
					if vc.branches[i].dir == dir && vc.branches[i].outVC < 0 {
						vc.branches[i].outVC = outVC
						break
					}
				}
				down.vcs[inPort][outVC].reserved = true
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
	for _, node := range nodes {
		if n.faults != nil && n.faults.NodeStuck(n.cycle, node) {
			continue
		}
		r := &n.routers[node]
		// An input port requests an output when any of its VCs has
		// an allocated, unsent branch and has aged through the
		// pipeline. A dead output link takes no requests: an already
		// allocated branch holds its downstream VC until the link
		// heals or the watchdog reclaims the packet.
		match := r.sa.Match(func(in, out int) bool {
			dir := mesh.Dir(out)
			if n.faults != nil && n.faults.LinkDown(n.cycle, node, dir) {
				return false
			}
			for v := range r.vcs[in] {
				vc := &r.vcs[in][v]
				if vc.empty() || vc.age < ready {
					continue
				}
				for _, b := range vc.branches {
					if b.dir == dir && b.outVC >= 0 {
						return true
					}
				}
			}
			return false
		})
		for out, in := range match {
			if in < 0 {
				continue
			}
			dir := mesh.Dir(out)
			// Pick the oldest eligible VC on this input port.
			bestV, bestAge, bestB := -1, -1, -1
			for v := range r.vcs[in] {
				vc := &r.vcs[in][v]
				if vc.empty() || vc.age < ready || vc.age <= bestAge {
					continue
				}
				for bi, b := range vc.branches {
					if b.dir == dir && b.outVC >= 0 {
						bestV, bestAge, bestB = v, vc.age, bi
						break
					}
				}
			}
			if bestV < 0 {
				panic("electrical: SA grant without eligible VC")
			}
			vc := &r.vcs[in][bestV]
			b := vc.branches[bestB]
			next, ok := n.m.Neighbor(node, dir)
			if !ok {
				panic("electrical: traversal off mesh edge")
			}
			vc.pkt.refs++ // the transit arrival is a new holder
			n.transit = append(n.transit, arrival{
				node: next, port: dir.Opposite(), vc: b.outVC, pkt: vc.pkt,
			})
			vc.branches = append(vc.branches[:bestB], vc.branches[bestB+1:]...)
			n.run.ElectricalEnergyPJ += n.energy.BufferReadPJ + n.energy.CrossbarPJ +
				n.energy.LinkPJ + n.energy.ArbitrationPJ
			n.run.LinkTraversals++
			n.emit(obs.KindSwitch, vc.pkt.msgID, node, dir)
			n.freeIfDone(node, vc)
		}
	}
}
