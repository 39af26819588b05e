// Package fabsim is a topology-generic optical fabric simulator: a
// store-and-forward packet network over any topo.Topology, implementing
// sim.Network so every harness feature — rate sweeps, coherence replay,
// observability, telemetry, latency provenance — runs on fabrics the
// cycle-exact mesh simulators cannot model (Benes multistage networks,
// Shufflecast shuffle trees).
//
// The model is first-order, at the same fidelity as the related-work
// substrates (corona, circuit): each directed link carries one packet
// per cycle, a traversal costs one cycle plus RouterDelay of switch
// processing at the far end, contention is resolved first-come
// first-served in deterministic packet order, and internal buffering is
// ideal (no flow control; the bound is the NIC injection queue, as in
// the other substrates). Multicast follows VCTM-style spanning trees
// built over the fabric graph (vctm.BuildSpanning), replicating at
// branch nodes — the Shufflecast operating mode.
//
// Events use the shared obs vocabulary but are emitted only at endpoint
// nodes (internal switch stages stay out of the endpoint-shaped obs
// matrices): Inject at NIC accept, Launch at every endpoint departure,
// Buffer at intermediate endpoint arrivals, Eject/Tap at deliveries.
// Provenance spans therefore attribute the full latency end to end,
// with switch-stage transit folded into the launch-to-arrival span.
package fabsim

import (
	"fmt"

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

// Config parameterises the generic fabric simulator.
type Config struct {
	// Topo is the fabric; required.
	Topo topo.Topology
	// RouterDelay is the switch processing time in cycles added at each
	// arrival before the packet may depart again (default 1).
	RouterDelay int
	// NICEntries is the injection queue capacity per endpoint.
	NICEntries int
	// LossTimeout, when positive, arms the delivery watchdog: a packet
	// (or multicast branch) older than this many cycles is abandoned and
	// reported through sim.LossReporting with its exact outstanding
	// delivery count, the same guarantee the mesh simulators give. Zero
	// keeps the fabric lossless (the default).
	LossTimeout int64
	// Seed is accepted for harness uniformity; the model is contention-
	// deterministic and draws no randomness.
	Seed int64
}

// DefaultConfig returns the baseline parameters over the given fabric.
func DefaultConfig(t topo.Topology) Config {
	return Config{Topo: t, RouterDelay: 1, NICEntries: 50, Seed: 1}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Topo == nil {
		return fmt.Errorf("fabsim: nil topology")
	}
	if c.RouterDelay < 0 {
		return fmt.Errorf("fabsim: router delay %d", c.RouterDelay)
	}
	if c.NICEntries < 1 {
		return fmt.Errorf("fabsim: NIC entries %d", c.NICEntries)
	}
	if c.LossTimeout < 0 {
		return fmt.Errorf("fabsim: loss timeout %d", c.LossTimeout)
	}
	return nil
}

// flit is one packet instance in the fabric: a unicast packet following
// its compiled route, or one branch of a multicast tree.
type flit struct {
	msgID uint64
	at    mesh.NodeID
	// born is the injection cycle, the delivery watchdog's age base;
	// multicast branches inherit the head's.
	born int64
	// readyAt is when switch processing at the current node completes.
	readyAt int64
	// route/hop drive unicast flits; route is pooled backing.
	route []mesh.Dir
	hop   int
	// tree/port drive multicast branches: the branch departs at through
	// port toward the rest of its subtree.
	tree *vctm.Tree
	port mesh.Dir
}

// delivery is a scheduled arrival handed to the harness when it matures.
type delivery struct {
	at  int64
	out sim.Delivery
}

// Network is the generic fabric simulator implementing sim.Network.
type Network struct {
	cfg Config
	top topo.Topology
	// portBase[n] is the claims offset of node n's ports; claims holds
	// the cycle each directed link was last used (one packet per link
	// per cycle).
	portBase []int
	claims   []int64
	// nics[n] is endpoint n's injection FIFO (queued flits not yet in
	// the fabric).
	nics [][]*flit
	// flits is the in-fabric packet list, processed in stable order.
	flits    []*flit
	scratch  []*flit
	inFlight []delivery
	free     []*flit
	// trees caches multicast trees like the electrical baseline: bcast
	// per source for full broadcasts, keyed for subsets.
	bcast []*vctm.Tree
	trees map[string]*vctm.Tree
	// live counts deliveries not yet scheduled; expected and scheduled
	// are the cumulative conservation counters the invariant audit
	// balances against losses (expected == scheduled + lost + live).
	live      int
	expected  int64
	scheduled int64
	// Loss watchdog (armed when LossTimeout > 0) and its DFS scratch
	// for counting a timed-out branch's outstanding subtree deliveries.
	lossHandler func(sim.Loss)
	watchEvery  int64
	nextScan    int64
	dfs         []mesh.NodeID
	tracer      func(obs.Event)
	run         stats.Run
	cycle       int64
}

var (
	_ sim.Network                = (*Network)(nil)
	_ obs.Traceable              = (*Network)(nil)
	_ sim.LossReporting          = (*Network)(nil)
	_ telemetry.InvariantChecker = (*Network)(nil)
)

// New builds a generic fabric network; it panics on invalid
// configuration, like the other simulators.
func New(cfg Config) *Network {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.RouterDelay == 0 {
		cfg.RouterDelay = 1
	}
	t := cfg.Topo
	base := make([]int, t.Nodes()+1)
	for n := 0; n < t.Nodes(); n++ {
		base[n+1] = base[n] + t.Degree(mesh.NodeID(n))
	}
	claims := make([]int64, base[t.Nodes()])
	for i := range claims {
		claims[i] = -1
	}
	n := &Network{
		cfg:      cfg,
		top:      t,
		portBase: base,
		claims:   claims,
		nics:     make([][]*flit, t.Endpoints()),
		bcast:    make([]*vctm.Tree, t.Endpoints()),
		trees:    make(map[string]*vctm.Tree),
	}
	if cfg.LossTimeout > 0 {
		n.watchEvery = cfg.LossTimeout / 4
		if n.watchEvery < 1 {
			n.watchEvery = 1
		}
		n.nextScan = n.watchEvery
	}
	return n
}

// SetLossHandler implements sim.LossReporting: handler is invoked
// synchronously whenever the delivery watchdog abandons a packet or a
// multicast branch (LossTimeout > 0). Nil disables reporting (losses are
// still counted in Run().Lost).
func (n *Network) SetLossHandler(handler func(sim.Loss)) { n.lossHandler = handler }

// CheckInvariants audits delivery conservation: every delivery ever
// promised at Inject must be scheduled, reported lost, or still live in
// the fabric. The telemetry watchdog calls it at flush boundaries.
func (n *Network) CheckInvariants() error {
	if n.expected != n.scheduled+n.run.Lost+int64(n.live) {
		return fmt.Errorf("fabsim: delivery conservation: %d expected != %d scheduled + %d lost + %d live",
			n.expected, n.scheduled, n.run.Lost, n.live)
	}
	return nil
}

// Topology returns the fabric this network runs over.
func (n *Network) Topology() topo.Topology { return n.top }

// Nodes implements sim.Network: the harness sees the endpoints; internal
// switch stages are not injection targets.
func (n *Network) Nodes() int { return n.top.Endpoints() }

// Run implements sim.Network.
func (n *Network) Run() *stats.Run { return &n.run }

// SetTracer implements obs.Traceable.
func (n *Network) SetTracer(f func(obs.Event)) { n.tracer = f }

// NICFree implements sim.Network.
func (n *Network) NICFree(node mesh.NodeID) int {
	f := n.cfg.NICEntries - len(n.nics[node])
	if f < 0 {
		return 0
	}
	return f
}

// Quiescent implements sim.Network.
func (n *Network) Quiescent() bool { return n.live == 0 && len(n.inFlight) == 0 }

// emit reports an event when tracing is on and the node is an endpoint
// (obs matrices are endpoint-shaped; switch stages stay invisible).
func (n *Network) emit(cycle int64, kind obs.Kind, msgID uint64, node mesh.NodeID, dir mesh.Dir) {
	if n.tracer != nil && int(node) < n.top.Endpoints() {
		n.tracer(obs.Event{Cycle: cycle, Kind: kind, MsgID: msgID, Node: node, Dir: dir})
	}
}

// getFlit takes a flit from the free list, keeping its route backing.
func (n *Network) getFlit() *flit {
	if k := len(n.free); k > 0 {
		f := n.free[k-1]
		n.free = n.free[:k-1]
		route := f.route
		*f = flit{route: route[:0]}
		return f
	}
	return &flit{}
}

func (n *Network) putFlit(f *flit) { n.free = append(n.free, f) }

// Inject implements sim.Network. Unlike the mesh simulators, any
// destination set is accepted: subsets multicast over pruned spanning
// trees.
func (n *Network) Inject(m sim.Message) {
	if free := n.NICFree(m.Src); free <= 0 {
		panic(fmt.Sprintf("fabsim: inject into full NIC at node %d (check NICFree before Inject)", m.Src))
	}
	n.run.Injected++
	n.emit(n.cycle, obs.KindInject, m.ID, m.Src, mesh.Local)
	f := n.getFlit()
	f.msgID, f.at, f.readyAt, f.born = m.ID, m.Src, n.cycle, n.cycle
	switch {
	case len(m.Dsts) == 1:
		if m.Dsts[0] == m.Src {
			panic("fabsim: self-directed message")
		}
		f.route = n.top.AppendRoute(f.route[:0], m.Src, m.Dsts[0])
		n.live++
		n.expected++
	default:
		f.tree = n.multicastTree(m.Src, m.Dsts)
		n.live += len(m.Dsts)
		n.expected += int64(len(m.Dsts))
	}
	n.nics[m.Src] = append(n.nics[m.Src], f)
}

// multicastTree returns the (cached) spanning tree for the destination
// set.
func (n *Network) multicastTree(src mesh.NodeID, dsts []mesh.NodeID) *vctm.Tree {
	if len(dsts) == n.top.Endpoints()-1 {
		if t := n.bcast[src]; t != nil {
			return t
		}
		t := vctm.BuildSpanning(n.top, src, dsts)
		n.bcast[src] = t
		return t
	}
	key := vctm.Key(src, dsts)
	if t := n.trees[key]; t != nil {
		return t
	}
	t := vctm.BuildSpanning(n.top, src, dsts)
	n.trees[key] = t
	return t
}

// claim takes the directed link (node, p) for this cycle; it reports
// false when another packet already holds it (one packet per link per
// cycle).
func (n *Network) claim(node mesh.NodeID, p mesh.Dir) bool {
	idx := n.portBase[node] + int(p)
	if n.claims[idx] == n.cycle {
		return false
	}
	n.claims[idx] = n.cycle
	return true
}

// Step implements sim.Network: release matured deliveries, move every
// ready flit one link under per-link claims, then dequeue NIC heads into
// the fabric. Deliveries are appended to buf per the sim.Network
// buffer-ownership contract; the steady-state loop does not allocate.
func (n *Network) Step(buf []sim.Delivery) []sim.Delivery {
	if n.watchEvery > 0 && n.cycle >= n.nextScan {
		n.watchdogScan()
		n.nextScan = n.cycle + n.watchEvery
	}
	out := buf
	rest := n.inFlight[:0]
	for _, d := range n.inFlight {
		if d.at <= n.cycle {
			out = append(out, d.out)
		} else {
			rest = append(rest, d)
		}
	}
	n.inFlight = rest

	// Move flits in stable order; a blocked flit keeps its position, so
	// contention resolves deterministically and roughly FIFO. advance
	// re-appends movers (arrivals, forks) to n.flits, which starts this
	// cycle as the recycled scratch list.
	cur := n.flits
	n.flits = n.scratch[:0]
	for _, f := range cur {
		if f.readyAt > n.cycle || !n.advance(f) {
			n.flits = append(n.flits, f)
		}
	}
	n.scratch = cur[:0]

	// One NIC dequeue per endpoint per cycle; the released flit (or
	// tree branches) joins the fabric and moves from the next cycle.
	for node := range n.nics {
		q := n.nics[node]
		if len(q) == 0 {
			continue
		}
		head := q[0]
		if head.readyAt > n.cycle {
			continue
		}
		copy(q, q[1:])
		n.nics[node] = q[:len(q)-1]
		if head.tree != nil {
			n.fork(head, head.tree, mesh.NodeID(node), n.cycle)
		} else {
			head.readyAt = n.cycle + 1
			n.flits = append(n.flits, head)
		}
	}

	n.run.LeakagePJ += power.LeakagePJ(leakageWPerNode, n.top.Nodes(), 1, photonic.DefaultClockGHz)
	n.cycle++
	return out
}

// advance tries to move f one link; it reports whether the flit left the
// list (traversed and was re-queued, delivered, or forked).
func (n *Network) advance(f *flit) bool {
	var port mesh.Dir
	if f.tree != nil {
		port = f.port
	} else {
		port = f.route[f.hop]
	}
	if !n.claim(f.at, port) {
		return false
	}
	next, ok := n.top.Neighbor(f.at, port)
	if !ok {
		panic(fmt.Sprintf("fabsim: route uses dead port %d at node %d", port, f.at))
	}
	n.emit(n.cycle, obs.KindLaunch, f.msgID, f.at, port)
	n.run.LinkTraversals++
	n.run.OpticalEnergyPJ += transmitPJ
	arriveAt := n.cycle + 1
	if f.tree != nil {
		n.arriveMulticast(f, f.tree, next, arriveAt)
		return true
	}
	f.hop++
	if f.hop == len(f.route) {
		n.deliver(f.msgID, next, arriveAt, obs.KindEject)
		n.putFlit(f)
		return true
	}
	n.emit(arriveAt, obs.KindBuffer, f.msgID, next, mesh.Local)
	f.at = next
	f.readyAt = arriveAt + int64(n.cfg.RouterDelay)
	n.flits = append(n.flits, f)
	return true
}

// arriveMulticast lands a tree branch at node: deliver if the tree says
// so, then fork onto the child branches. f is recycled or reused as the
// first branch.
func (n *Network) arriveMulticast(f *flit, tree *vctm.Tree, node mesh.NodeID, at int64) {
	children := tree.Children(node)
	if tree.Deliver(node) {
		kind := obs.KindEject
		if len(children) > 0 {
			kind = obs.KindTap
		}
		n.deliver(f.msgID, node, at, kind)
	} else if len(children) > 0 {
		n.emit(at, obs.KindBuffer, f.msgID, node, mesh.Local)
	}
	if len(children) == 0 {
		n.putFlit(f)
		return
	}
	n.forkInto(f, tree, node, at, children)
}

// fork splits a just-dequeued multicast head into its root branches.
func (n *Network) fork(f *flit, tree *vctm.Tree, node mesh.NodeID, at int64) {
	children := tree.Children(node)
	if len(children) == 0 {
		panic(fmt.Sprintf("fabsim: multicast tree rooted at %d has no branches", node))
	}
	n.forkInto(f, tree, node, at, children)
}

// forkInto queues one branch flit per child port, reusing f for the
// first.
func (n *Network) forkInto(f *flit, tree *vctm.Tree, node mesh.NodeID, at int64, children []mesh.Dir) {
	ready := at + int64(n.cfg.RouterDelay)
	for i, p := range children {
		b := f
		if i > 0 {
			b = n.getFlit()
			b.msgID, b.born = f.msgID, f.born
		}
		b.tree, b.at, b.port, b.readyAt = tree, node, p, ready
		n.flits = append(n.flits, b)
	}
}

// deliver schedules one harness delivery.
func (n *Network) deliver(msgID uint64, dst mesh.NodeID, at int64, kind obs.Kind) {
	n.emit(at, kind, msgID, dst, mesh.Local)
	n.live--
	n.scheduled++
	n.run.ElectricalEnergyPJ += receivePJ
	n.inFlight = append(n.inFlight, delivery{at: at, out: sim.Delivery{MsgID: msgID, Dst: dst}})
}

// lose abandons one flit carrying count outstanding deliveries: the
// conservation counters move from live to lost, the handler hears about
// it, and the flit returns to the free list. The caller removes it from
// whatever queue held it.
func (n *Network) lose(f *flit, at mesh.NodeID, count int) {
	n.live -= count
	n.run.Lost += int64(count)
	n.emit(n.cycle, obs.KindLost, f.msgID, at, mesh.Local)
	if n.lossHandler != nil {
		n.lossHandler(sim.Loss{MsgID: f.msgID, Node: at, Count: count, Reason: sim.LossTimeout})
	}
	n.putFlit(f)
}

// pendingDeliveries counts the deliveries a flit is still responsible
// for: one for a unicast packet, the branch's whole remaining subtree for
// a multicast branch (arrivals deliver before forking, so the subtree
// rooted at the branch's next hop is exactly what is outstanding).
func (n *Network) pendingDeliveries(f *flit) int {
	if f.tree == nil {
		return 1
	}
	next, ok := n.top.Neighbor(f.at, f.port)
	if !ok {
		panic(fmt.Sprintf("fabsim: branch uses dead port %d at node %d", f.port, f.at))
	}
	return n.subtreeDeliveries(f.tree, next)
}

// subtreeDeliveries walks the spanning tree from root and counts its
// delivery nodes, using the network's reusable DFS stack.
func (n *Network) subtreeDeliveries(tree *vctm.Tree, root mesh.NodeID) int {
	stack := append(n.dfs[:0], root)
	count := 0
	for len(stack) > 0 {
		node := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if tree.Deliver(node) {
			count++
		}
		for _, p := range tree.Children(node) {
			next, ok := n.top.Neighbor(node, p)
			if !ok {
				panic(fmt.Sprintf("fabsim: tree uses dead port %d at node %d", p, node))
			}
			stack = append(stack, next)
		}
	}
	n.dfs = stack[:0]
	return count
}

// watchdogScan abandons NIC entries and in-fabric flits older than
// LossTimeout, with exact delivery counts: a queued multicast head owes
// its full destination set, an in-fabric branch its remaining subtree.
func (n *Network) watchdogScan() {
	cutoff := n.cycle - n.cfg.LossTimeout
	for node := range n.nics {
		q := n.nics[node]
		w := 0
		for _, f := range q {
			if f.born <= cutoff {
				count := 1
				if f.tree != nil {
					count = f.tree.Destinations()
				}
				n.lose(f, mesh.NodeID(node), count)
				continue
			}
			q[w] = f
			w++
		}
		if w != len(q) {
			n.nics[node] = q[:w]
		}
	}
	w := 0
	for _, f := range n.flits {
		if f.born <= cutoff {
			n.lose(f, f.at, n.pendingDeliveries(f))
			continue
		}
		n.flits[w] = f
		w++
	}
	n.flits = n.flits[:w]
}

// Energy constants, at the same first-order fidelity as the other
// comparison substrates: one modulate+traverse charge per link, a
// receiver charge per delivery, and per-node leakage.
const (
	transmitPJ      = 9.0
	receivePJ       = 5.7
	leakageWPerNode = 0.004
)
