package electrical

import (
	"reflect"
	"testing"

	"phastlane/internal/fault"
	"phastlane/internal/mesh"
	"phastlane/internal/obs"
	"phastlane/internal/packet"
	"phastlane/internal/sim"
	"phastlane/internal/stats"
)

// isolateNode cuts every link into and out of node.
func isolateNode(m *mesh.Mesh, node mesh.NodeID) []fault.Fault {
	var fs []fault.Fault
	for d := mesh.Dir(0); d < mesh.NumLinkDirs; d++ {
		nb, ok := m.Neighbor(node, d)
		if !ok {
			continue
		}
		fs = append(fs,
			fault.Fault{Kind: fault.DeadLink, Node: node, Dir: d},
			fault.Fault{Kind: fault.DeadLink, Node: nb, Dir: d.Opposite()},
		)
	}
	return fs
}

func TestFaultConfigValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.LossTimeout = -1 },
		func(c *Config) { c.Faults = &fault.Plan{CorruptRate: -1} },
		func(c *Config) {
			c.Faults = &fault.Plan{Faults: []fault.Fault{{Kind: fault.DeadLink, Node: 64, Dir: mesh.North}}}
		},
	}
	for i, mut := range bad {
		cfg := DefaultConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad fault config %d passed validation", i)
		}
	}
}

func TestEmptyPlanBitIdentical(t *testing.T) {
	run := func(p *fault.Plan) stats.Run {
		n := mustNew(t, func(c *Config) { c.Faults = p })
		for i := uint64(0); i < 24; i++ {
			src := mesh.NodeID(i % 8)
			n.Inject(sim.Message{ID: i + 1, Src: src, Dsts: []mesh.NodeID{63 - src}, Op: packet.OpSynthetic})
		}
		stepUntilQuiescent(t, n, 2000)
		return *n.Run()
	}
	a := run(nil)
	b := run(&fault.Plan{})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("empty plan changed the run:\nnil:   %+v\nempty: %+v", a, b)
	}
}

func TestDeadLinkReroutesDelivery(t *testing.T) {
	n := mustNew(t, func(c *Config) {
		c.Faults = &fault.Plan{Faults: []fault.Fault{
			{Kind: fault.DeadLink, Node: 1, Dir: mesh.East},
			{Kind: fault.DeadLink, Node: 2, Dir: mesh.West},
		}}
	})
	n.Inject(sim.Message{ID: 1, Src: 0, Dsts: []mesh.NodeID{3}, Op: packet.OpSynthetic})
	deliveries := stepUntilQuiescent(t, n, 500)
	if len(deliveries) != 1 || deliveries[0].MsgID != 1 || deliveries[0].Dst != 3 {
		t.Fatalf("deliveries %+v, want msg 1 at node 3", deliveries)
	}
	if n.Run().Lost != 0 {
		t.Fatalf("rerouted delivery reported %d losses", n.Run().Lost)
	}
}

func TestUnreachableUnicastReportedImmediately(t *testing.T) {
	m := mesh.New(8, 8)
	n := mustNew(t, func(c *Config) {
		c.Faults = &fault.Plan{Faults: isolateNode(m, 9)}
	})
	var losses []sim.Loss
	n.SetLossHandler(func(l sim.Loss) { losses = append(losses, l) })
	n.Inject(sim.Message{ID: 5, Src: 0, Dsts: []mesh.NodeID{9}, Op: packet.OpSynthetic})
	deliveries := stepUntilQuiescent(t, n, 500)
	if len(deliveries) != 0 {
		t.Fatalf("deliveries %+v to an isolated node", deliveries)
	}
	if len(losses) != 1 || losses[0].MsgID != 5 || losses[0].Count != 1 || losses[0].Reason != sim.LossUnreachable {
		t.Fatalf("losses %+v, want one unreachable loss of msg 5", losses)
	}
	if n.Run().Lost != 1 {
		t.Fatalf("Run().Lost = %d", n.Run().Lost)
	}
}

// TestBroadcastLossAccountingUnderFaults pins exact delivery accounting
// for pinned multicast trees: a broadcast into a mesh with an isolated
// region must deliver to every reachable destination and report the rest
// lost (via the watchdog timeout), with delivered + lost == 63 and no
// duplicates.
func TestBroadcastLossAccountingUnderFaults(t *testing.T) {
	m := mesh.New(8, 8)
	n := mustNew(t, func(c *Config) {
		c.Faults = &fault.Plan{Faults: isolateNode(m, 63)}
		c.LossTimeout = 400
	})
	var lost int
	n.SetLossHandler(func(l sim.Loss) { lost += l.Count })
	dsts := make([]mesh.NodeID, 0, 63)
	for i := 1; i < 64; i++ {
		dsts = append(dsts, mesh.NodeID(i))
	}
	n.Inject(sim.Message{ID: 1, Src: 0, Dsts: dsts, Op: packet.OpSynthetic})
	deliveries := stepUntilQuiescent(t, n, 5000)
	seen := map[mesh.NodeID]int{}
	for _, d := range deliveries {
		seen[d.Dst]++
		if seen[d.Dst] > 1 {
			t.Fatalf("duplicate delivery at node %d", d.Dst)
		}
	}
	if seen[63] != 0 {
		t.Fatal("delivered to the isolated node")
	}
	if len(deliveries)+lost != 63 {
		t.Fatalf("delivered %d + lost %d != 63", len(deliveries), lost)
	}
	if lost == 0 {
		t.Fatal("no losses for the isolated subtree")
	}
}

// TestTransientFaultLosesThenHeals pins the electrical loss semantics:
// there is no retransmit protocol, so a packet whose destination is
// unreachable at fill time is lost immediately — but once the fault
// window closes, later traffic to the same destination flows normally.
func TestTransientFaultLosesThenHeals(t *testing.T) {
	n := mustNew(t, func(c *Config) {
		c.Faults = &fault.Plan{Faults: []fault.Fault{
			{Kind: fault.StuckRouter, Node: 9, Until: 60},
		}}
	})
	var losses []sim.Loss
	n.SetLossHandler(func(l sim.Loss) { losses = append(losses, l) })
	n.Inject(sim.Message{ID: 1, Src: 8, Dsts: []mesh.NodeID{9}, Op: packet.OpSynthetic})
	var deliveries []sim.Delivery
	for i := 0; i < 100; i++ {
		deliveries = append(deliveries, n.Step(nil)...)
	}
	if len(deliveries) != 0 {
		t.Fatalf("deliveries %+v while the destination was stuck", deliveries)
	}
	if len(losses) != 1 || losses[0].MsgID != 1 || losses[0].Reason != sim.LossUnreachable {
		t.Fatalf("losses %+v, want one immediate unreachable loss of msg 1", losses)
	}
	// Past the fault window the destination is healthy again.
	n.Inject(sim.Message{ID: 2, Src: 8, Dsts: []mesh.NodeID{9}, Op: packet.OpSynthetic})
	deliveries = stepUntilQuiescent(t, n, 1000)
	if len(deliveries) != 1 || deliveries[0].MsgID != 2 || deliveries[0].Dst != 9 {
		t.Fatalf("deliveries %+v, want msg 2 at node 9 after heal", deliveries)
	}
	if n.Run().Lost != 1 {
		t.Fatalf("Run().Lost = %d, want exactly the pre-heal loss", n.Run().Lost)
	}
}

func TestNICSlotFaultReducesCapacity(t *testing.T) {
	n := mustNew(t, func(c *Config) {
		c.Faults = &fault.Plan{Faults: []fault.Fault{
			{Kind: fault.BufferSlots, Node: 4, Dir: mesh.Local, Slots: DefaultConfig().NICEntries},
		}}
	})
	if free := n.NICFree(4); free != 0 {
		t.Fatalf("NICFree = %d with every slot failed", free)
	}
	if free := n.NICFree(5); free != DefaultConfig().NICEntries {
		t.Fatalf("healthy NICFree = %d", free)
	}
}

// TestLostReservationReleased pins the loss path's reservation release.
// On a 3×2 mesh with one VC a port, a multicast from node 0 to {1, 2}
// reaches branch router 1 at cycle 3, where VA reserves node 2's only
// West VC. From cycle 4, before the switch allocator could send the
// replica, the link 1→2 dies and router 1 sticks, which also holds its
// local ejection. The watchdog's timeout must report both outstanding
// deliveries and hand the reservation back, so once the faults heal a
// later packet crosses the same link into that VC.
func TestLostReservationReleased(t *testing.T) {
	const heal = 150
	n := mustNew(t, func(c *Config) {
		c.Width, c.Height, c.VCs = 3, 2, 1
		c.LossTimeout = 100
		c.Faults = &fault.Plan{Faults: []fault.Fault{
			{Kind: fault.DeadLink, Node: 1, Dir: mesh.East, From: 4, Until: heal},
			{Kind: fault.StuckRouter, Node: 1, From: 4, Until: heal},
		}}
	})
	var losses []sim.Loss
	n.SetLossHandler(func(l sim.Loss) { losses = append(losses, l) })
	var reserved []int64 // cycles of VA grants from router 1 toward node 2
	n.SetTracer(func(e obs.Event) {
		if e.Kind == obs.KindVCAlloc && e.Node == 1 && e.Dir == mesh.East {
			reserved = append(reserved, e.Cycle)
		}
	})
	var deliveries []sim.Delivery
	step := func(cycles int) {
		for i := 0; i < cycles; i++ {
			deliveries = n.Step(deliveries)
			if err := n.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
	}
	n.Inject(sim.Message{ID: 1, Src: 0, Dsts: []mesh.NodeID{1, 2}, Op: packet.OpSynthetic})
	step(heal)
	if len(reserved) != 1 || reserved[0] != 3 {
		t.Fatalf("router 1 reserved toward node 2 at cycles %v, want only cycle 3", reserved)
	}
	if len(deliveries) != 0 {
		t.Fatalf("deliveries %+v while router 1 was stuck", deliveries)
	}
	want := []sim.Loss{{MsgID: 1, Node: 1, Count: 2, Reason: sim.LossTimeout}}
	if !reflect.DeepEqual(losses, want) || n.Run().Lost != 2 {
		t.Fatalf("losses %+v (Run().Lost %d), want %+v", losses, n.Run().Lost, want)
	}
	n.Inject(sim.Message{ID: 2, Src: 0, Dsts: []mesh.NodeID{2}, Op: packet.OpSynthetic})
	step(50)
	if len(deliveries) != 1 || deliveries[0] != (sim.Delivery{MsgID: 2, Dst: 2}) || len(reserved) != 2 {
		t.Fatalf("after the heal: deliveries %+v, reservations at %v; want msg 2 at node 2 through the released VC",
			deliveries, reserved)
	}
	if n.Run().Lost != 2 || !n.Quiescent() {
		t.Fatalf("after the heal: Run().Lost %d, quiescent %v", n.Run().Lost, n.Quiescent())
	}
}
