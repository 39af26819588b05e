package core

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

// isolateNode returns the dead-link faults that cut every link into and
// out of node, with the given window.
func isolateNode(m *mesh.Mesh, node mesh.NodeID, from, until int64) []fault.Fault {
	var fs []fault.Fault
	for d := mesh.Dir(0); d < mesh.NumLinkDirs; d++ {
		nb, ok := m.Neighbor(node, d)
		if !ok {
			continue
		}
		fs = append(fs,
			fault.Fault{Kind: fault.DeadLink, Node: node, Dir: d, From: from, Until: until},
			fault.Fault{Kind: fault.DeadLink, Node: nb, Dir: d.Opposite(), From: from, Until: until},
		)
	}
	return fs
}

func TestFaultConfigValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.RetryLimit = -1 },
		func(c *Config) { c.LossTimeout = -1 },
		func(c *Config) { c.Faults = &fault.Plan{CorruptRate: 2} },
		func(c *Config) {
			c.Faults = &fault.Plan{Faults: []fault.Fault{{Kind: fault.DeadLink, Node: 999, Dir: mesh.North}}}
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

// TestEmptyPlanBitIdentical pins the zero-cost contract: a present but
// empty plan arms nothing and leaves the simulation bit-identical to a
// nil plan.
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

func TestTransientStuckDestinationHeals(t *testing.T) {
	n := mustNew(t, func(c *Config) {
		c.Faults = &fault.Plan{Faults: []fault.Fault{
			{Kind: fault.StuckRouter, Node: 9, From: 0, Until: 50},
		}}
	})
	n.Inject(sim.Message{ID: 1, Src: 8, Dsts: []mesh.NodeID{9}, Op: packet.OpSynthetic})
	deliveries := stepUntilQuiescent(t, n, 500)
	if len(deliveries) != 1 || deliveries[0].Dst != 9 {
		t.Fatalf("deliveries %+v, want msg 1 at node 9 after heal", deliveries)
	}
	if n.Run().Unreachable == 0 {
		t.Error("no unreachable probes recorded while the destination was stuck")
	}
	if n.Run().Lost != 0 {
		t.Errorf("%d losses on a healing fault", n.Run().Lost)
	}
}

func TestUnreachableDestinationTimesOut(t *testing.T) {
	m := mesh.New(8, 8)
	n := mustNew(t, func(c *Config) {
		c.Faults = &fault.Plan{Faults: isolateNode(m, 9, 0, 0)}
		c.LossTimeout = 100
	})
	var losses []sim.Loss
	n.SetLossHandler(func(l sim.Loss) { losses = append(losses, l) })
	n.Inject(sim.Message{ID: 7, Src: 8, Dsts: []mesh.NodeID{9}, Op: packet.OpSynthetic})
	deliveries := stepUntilQuiescent(t, n, 1000)
	if len(deliveries) != 0 {
		t.Fatalf("deliveries %+v to an isolated node", deliveries)
	}
	if len(losses) != 1 || losses[0].MsgID != 7 || losses[0].Count != 1 || losses[0].Reason != sim.LossTimeout {
		t.Fatalf("losses %+v, want one timeout loss of msg 7", losses)
	}
	if n.Run().Lost != 1 || n.Run().Unreachable == 0 {
		t.Fatalf("Lost=%d Unreachable=%d", n.Run().Lost, n.Run().Unreachable)
	}
}

// TestRetryBudgetAccountsEveryMessage drives heavy single-destination
// contention through 1-entry buffers with a tight retry budget: every
// message must end up delivered or reported lost, never silently gone and
// never duplicated.
func TestRetryBudgetAccountsEveryMessage(t *testing.T) {
	n := mustNew(t, func(c *Config) {
		c.BufferEntries = 1
		c.RetryLimit = 2
	})
	var losses []sim.Loss
	n.SetLossHandler(func(l sim.Loss) { losses = append(losses, l) })
	const msgs = 32
	for i := uint64(0); i < msgs; i++ {
		src := mesh.NodeID(i % 16) // sources all distinct from the hot destination
		n.Inject(sim.Message{ID: i + 1, Src: src, Dsts: []mesh.NodeID{36}, Op: packet.OpSynthetic})
	}
	deliveries := stepUntilQuiescent(t, n, 5000)
	seen := map[uint64]int{}
	for _, d := range deliveries {
		seen[d.MsgID]++
	}
	lost := map[uint64]int{}
	for _, l := range losses {
		if l.Reason != sim.LossRetryBudget {
			t.Errorf("unexpected loss reason %v", l.Reason)
		}
		lost[l.MsgID] += l.Count
	}
	for i := uint64(1); i <= msgs; i++ {
		if seen[i]+lost[i] != 1 {
			t.Errorf("msg %d: delivered %d times, lost %d times", i, seen[i], lost[i])
		}
	}
	if int64(len(losses)) != n.Run().Lost {
		t.Errorf("handler saw %d losses, Run counted %d", len(losses), n.Run().Lost)
	}
}

func TestCorruptionRecovers(t *testing.T) {
	n := mustNew(t, func(c *Config) {
		c.Faults = &fault.Plan{Seed: 3, CorruptRate: 0.05}
	})
	const msgs = 24
	for i := uint64(0); i < msgs; i++ {
		src := mesh.NodeID(i * 5 % 64)
		dst := mesh.NodeID((i*11 + 32) % 64)
		if src == dst {
			dst = (dst + 1) % 64
		}
		n.Inject(sim.Message{ID: i + 1, Src: src, Dsts: []mesh.NodeID{dst}, Op: packet.OpSynthetic})
	}
	deliveries := stepUntilQuiescent(t, n, 5000)
	if int64(len(deliveries)) != msgs {
		t.Fatalf("%d deliveries, want %d (Lost=%d)", len(deliveries), msgs, n.Run().Lost)
	}
	if n.Run().Corrupt == 0 {
		t.Error("no corruption events at 5% per-hop rate")
	}
	if n.Run().Lost != 0 {
		t.Errorf("%d losses without a retry budget", n.Run().Lost)
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

func TestFaultTransitionsTraced(t *testing.T) {
	n := mustNew(t, func(c *Config) {
		c.Faults = &fault.Plan{Faults: []fault.Fault{
			{Kind: fault.DeadLink, Node: 1, Dir: mesh.East, From: 3, Until: 6},
		}}
	})
	var kinds []obs.Kind
	n.SetTracer(func(e Event) { kinds = append(kinds, e.Kind) })
	for i := 0; i < 10; i++ {
		n.Step(nil)
	}
	faults := 0
	for _, k := range kinds {
		if k == obs.KindFault {
			faults++
		}
	}
	if faults != 2 {
		t.Fatalf("%d fault transitions traced, want activation + heal", faults)
	}
}

// TestRotationCountsUnstuckCycles checks the derived rotating-arbiter
// pointer against the per-router counter it replaced, which advanced once
// every cycle the router was not stuck: across overlapping, adjacent and
// open-ended stuck windows, and on an unfaulted router.
func TestRotationCountsUnstuckCycles(t *testing.T) {
	n := mustNew(t, func(c *Config) {
		c.Faults = &fault.Plan{Faults: []fault.Fault{
			{Kind: fault.StuckRouter, Node: 20, From: 10, Until: 20},
			{Kind: fault.StuckRouter, Node: 20, From: 15, Until: 30},
			{Kind: fault.StuckRouter, Node: 20, From: 30, Until: 33},
			{Kind: fault.StuckRouter, Node: 20, From: 47, Until: 48},
			{Kind: fault.StuckRouter, Node: 20, From: 60},
		}}
	})
	for _, node := range []mesh.NodeID{20, 21} {
		counter := 0
		for c := int64(0); c < 100; c++ {
			n.cycle = c
			if got := n.rotation(node); got != counter {
				t.Fatalf("node %d cycle %d: rotation %d, counter %d", node, c, got, counter)
			}
			if !n.faults.NodeStuck(c, node) {
				counter = (counter + 1) % mesh.NumDirs
			}
		}
	}
}
