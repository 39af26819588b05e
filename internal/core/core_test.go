package core

import (
	"math/rand"
	"reflect"
	"testing"

	"phastlane/internal/fault"
	"phastlane/internal/mesh"
	"phastlane/internal/packet"
	"phastlane/internal/sim"
)

func mustNew(t *testing.T, mutate func(*Config)) *Network {
	t.Helper()
	cfg := DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	return New(cfg)
}

// stepUntilQuiescent drives the network and collects deliveries, failing
// the test if it does not settle within limit cycles.
func stepUntilQuiescent(t *testing.T, n *Network, limit int) []sim.Delivery {
	t.Helper()
	var all []sim.Delivery
	for i := 0; i < limit; i++ {
		all = append(all, n.Step(nil)...)
		if n.Quiescent() {
			return all
		}
	}
	t.Fatalf("network not quiescent after %d cycles (live=%d)", limit, n.live)
	return nil
}

func TestConfigValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Width = 1 },
		func(c *Config) { c.MaxHops = 0 },
		func(c *Config) { c.BufferEntries = 0 },
		func(c *Config) { c.NICEntries = 0 },
		func(c *Config) { c.WDM = 0 },
		func(c *Config) { c.CrossingEff = 0 },
		func(c *Config) { c.CrossingEff = 1.2 },
		func(c *Config) { c.BackoffBase = 0 },
		func(c *Config) { c.BackoffMax = 1; c.BackoffBase = 4 },
	}
	for i, mut := range bad {
		cfg := DefaultConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d passed validation", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestDefaultConfigMatchesTable1(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Width != 8 || cfg.Height != 8 {
		t.Error("default mesh is not 8x8")
	}
	if cfg.NICEntries != 50 {
		t.Errorf("NIC entries = %d, want 50 (Table 1)", cfg.NICEntries)
	}
	if cfg.WDM != 64 {
		t.Errorf("WDM = %d, want 64 (Table 1)", cfg.WDM)
	}
	if cfg.BufferEntries != 10 {
		t.Errorf("buffers = %d, want 10 (Section 5)", cfg.BufferEntries)
	}
}

func TestSingleHopDeliveredSameCycle(t *testing.T) {
	n := mustNew(t, nil)
	n.Inject(sim.Message{ID: 1, Src: 0, Dsts: []mesh.NodeID{1}, Op: packet.OpSynthetic})
	ds := n.Step(nil)
	if len(ds) != 1 || ds[0].MsgID != 1 || ds[0].Dst != 1 {
		t.Fatalf("deliveries = %v", ds)
	}
	if !n.Quiescent() {
		// The NIC slot is still reserved for the drop window.
		n.Step(nil)
	}
	if !n.Quiescent() {
		t.Error("network not quiescent after delivery")
	}
}

func TestMaxHopsReachedInOneCycle(t *testing.T) {
	// Distance 4 with MaxHops 4: one cycle.
	n := mustNew(t, nil)
	n.Inject(sim.Message{ID: 1, Src: 0, Dsts: []mesh.NodeID{4}, Op: packet.OpSynthetic})
	if ds := n.Step(nil); len(ds) != 1 {
		t.Fatalf("distance-4 packet not delivered in first cycle: %v", ds)
	}
}

func TestInterimNodePipelining(t *testing.T) {
	// Corner to corner: 14 links at MaxHops=4 => 4 transmission cycles
	// separated by 1-cycle buffer turnarounds: delivered on cycle
	// ceil(14/4) + turnarounds. Check it takes >1 and <=8 cycles and
	// exactly one delivery happens.
	n := mustNew(t, nil)
	n.Inject(sim.Message{ID: 1, Src: 0, Dsts: []mesh.NodeID{63}, Op: packet.OpSynthetic})
	var deliveredAt int64 = -1
	for i := int64(0); i < 10; i++ {
		if ds := n.Step(nil); len(ds) > 0 {
			deliveredAt = i
			break
		}
	}
	if deliveredAt <= 0 {
		t.Fatalf("corner-to-corner packet delivered at cycle %d, want >0", deliveredAt)
	}
	if deliveredAt > 7 {
		t.Fatalf("corner-to-corner took %d cycles uncontended, too slow", deliveredAt)
	}
	if n.Run().BufferedPackets == 0 {
		t.Error("expected interim buffering on a 14-link journey")
	}
}

func TestInterimCountMatchesSegmentation(t *testing.T) {
	// 14 links at 5 hops/cycle: interims at 5 and 10 => 2 bufferings,
	// 3 transmission cycles.
	n := mustNew(t, func(c *Config) { c.MaxHops = 5 })
	n.Inject(sim.Message{ID: 1, Src: 0, Dsts: []mesh.NodeID{63}, Op: packet.OpSynthetic})
	stepUntilQuiescent(t, n, 20)
	if got := n.Run().BufferedPackets; got != 2 {
		t.Errorf("buffered %d times, want 2 (interims at hops 5 and 10)", got)
	}
	if got := n.Run().LinkTraversals; got != 14 {
		t.Errorf("link traversals = %d, want 14", got)
	}
}

func TestEightHopNetworkSkipsInterims(t *testing.T) {
	n := mustNew(t, func(c *Config) { c.MaxHops = 8 })
	n.Inject(sim.Message{ID: 1, Src: 0, Dsts: []mesh.NodeID{7}, Op: packet.OpSynthetic})
	if ds := n.Step(nil); len(ds) != 1 {
		t.Fatal("7-link journey should complete in one cycle at MaxHops=8")
	}
	if n.Run().BufferedPackets != 0 {
		t.Error("no interim buffering expected")
	}
}

func TestContentionBuffersLoser(t *testing.T) {
	// Two packets both need link (1 -> 2) eastward in the same cycle:
	// node 0 -> 3 and node 1 -> 3. The node-1 packet launches at step
	// 0 and claims (1,E); the node-0 packet arrives at router 1 a step
	// later, finds the link claimed, and is buffered at router 1.
	n := mustNew(t, nil)
	n.Inject(sim.Message{ID: 1, Src: 0, Dsts: []mesh.NodeID{3}, Op: packet.OpSynthetic})
	n.Inject(sim.Message{ID: 2, Src: 1, Dsts: []mesh.NodeID{3}, Op: packet.OpSynthetic})
	first := n.Step(nil)
	if len(first) != 1 || first[0].MsgID != 2 {
		t.Fatalf("cycle 0 deliveries = %v, want msg 2 only", first)
	}
	if n.Run().BufferedPackets != 1 {
		t.Fatalf("buffered = %d, want 1", n.Run().BufferedPackets)
	}
	second := n.Step(nil)
	if len(second) != 1 || second[0].MsgID != 1 {
		t.Fatalf("cycle 1 deliveries = %v, want msg 1", second)
	}
}

func TestStraightBeatsTurn(t *testing.T) {
	// Under X-then-Y routing turns always exit vertically, so turn
	// contention arises on vertical links. At router 9 (coord (1,1)):
	// msg 1: 1 -> 17, straight north through 9.
	// msg 2: 8 -> 17, east to 9 then a left turn north.
	// Both request link (9, N) at the same walk step; the straight
	// packet must win and the turning one is buffered at router 9.
	n := mustNew(t, nil)
	n.Inject(sim.Message{ID: 1, Src: 1, Dsts: []mesh.NodeID{17}, Op: packet.OpSynthetic})
	n.Inject(sim.Message{ID: 2, Src: 8, Dsts: []mesh.NodeID{17}, Op: packet.OpSynthetic})
	first := n.Step(nil)
	if len(first) != 1 || first[0].MsgID != 1 {
		t.Fatalf("cycle 0 deliveries = %v, want straight msg 1", first)
	}
	if n.Run().BufferedPackets != 1 {
		t.Errorf("buffered = %d, want 1 (the turning packet)", n.Run().BufferedPackets)
	}
	second := n.Step(nil)
	if len(second) != 1 || second[0].MsgID != 2 {
		t.Fatalf("cycle 1 deliveries = %v, want msg 2", second)
	}
	if n.Run().Drops != 0 {
		t.Error("no drops expected with empty buffers")
	}
}

// contentionWinner injects one packet to node 17 from each of srcs in
// cycle c of a fresh network and returns the source of the one delivered
// in that cycle: the packet that won link (9, N). From 1 the packet runs
// straight through router 9 entering on S; from 8 it enters on W and turns
// left, from 10 on E and turns right. The losers are buffered at 9 and
// must still be delivered.
func contentionWinner(t *testing.T, rrTurns bool, c int, srcs ...mesh.NodeID) mesh.NodeID {
	t.Helper()
	n := mustNew(t, func(cfg *Config) { cfg.RoundRobinTurns = rrTurns })
	for i := 0; i < c; i++ {
		n.Step(nil)
	}
	for _, src := range srcs {
		n.Inject(sim.Message{ID: uint64(src), Src: src, Dsts: []mesh.NodeID{17}, Op: packet.OpSynthetic})
	}
	first := n.Step(nil)
	if len(first) != 1 {
		t.Fatalf("rrTurns %v, cycle %d: deliveries %v, want exactly one", rrTurns, c, first)
	}
	if rest := stepUntilQuiescent(t, n, 100); len(rest) != len(srcs)-1 {
		t.Fatalf("rrTurns %v, cycle %d: %d losers delivered, want %d", rrTurns, c, len(rest), len(srcs)-1)
	}
	return mesh.NodeID(first[0].MsgID)
}

// TestTurnPortOrder pins the fixed priority among turns: two turning
// packets request link (9, N) in the same walk step, and the one entering
// on E beats the one entering on W, though W's source launches first; a
// straight packet entering on S beats both.
func TestTurnPortOrder(t *testing.T) {
	if got := contentionWinner(t, false, 0, 8, 10); got != 10 {
		t.Errorf("turns from W (8) and E (10): winner %d, want 10", got)
	}
	if got := contentionWinner(t, false, 0, 1, 8, 10); got != 1 {
		t.Errorf("straight from S (1) against two turns: winner %d, want 1", got)
	}
}

// TestRoundRobinTurnsRotatesPortOrder pins the footnote-3 alternative:
// straight-through has no precedence, and the favoured input port rotates
// with the cycle, so the packets entering on E, W and S win in turn.
func TestRoundRobinTurnsRotatesPortOrder(t *testing.T) {
	for c, want := range []mesh.NodeID{10, 8, 1, 10} {
		if got := contentionWinner(t, true, c, 1, 8, 10); got != want {
			t.Errorf("injected in cycle %d: winner %d, want %d", c, got, want)
		}
	}
}

func TestBufferFullDropsAndRetransmits(t *testing.T) {
	// BufferEntries=1. Flood link (1, E): node 1's NIC launches claim
	// it every cycle, so node 0's packets arriving at router 1 are
	// blocked into its single-entry West buffer; once that slot is
	// occupied (or reserved for the drop window), further arrivals are
	// dropped and must be retransmitted after the drop signal returns.
	n := mustNew(t, func(c *Config) { c.BufferEntries = 1; c.Seed = 7 })
	const perSource = 15
	var id uint64
	for i := 0; i < perSource; i++ {
		id++
		n.Inject(sim.Message{ID: id, Src: 0, Dsts: []mesh.NodeID{3}, Op: packet.OpSynthetic})
		id++
		n.Inject(sim.Message{ID: id, Src: 1, Dsts: []mesh.NodeID{3}, Op: packet.OpSynthetic})
	}
	got := make(map[uint64]int)
	for _, d := range stepUntilQuiescent(t, n, 2000) {
		got[d.MsgID]++
	}
	for m := uint64(1); m <= id; m++ {
		if got[m] != 1 {
			t.Errorf("msg %d delivered %d times, want exactly once", m, got[m])
		}
	}
	if n.Run().Drops == 0 || n.Run().Retries == 0 {
		t.Errorf("expected drops and retries, got drops=%d retries=%d", n.Run().Drops, n.Run().Retries)
	}
}

func TestBroadcastDeliversToAll(t *testing.T) {
	n := mustNew(t, nil)
	all := make([]mesh.NodeID, 0, 63)
	for i := mesh.NodeID(0); i < 64; i++ {
		if i != 27 {
			all = append(all, i)
		}
	}
	n.Inject(sim.Message{ID: 1, Src: 27, Dsts: all, Op: packet.OpReadReq})
	got := make(map[mesh.NodeID]int)
	for _, d := range stepUntilQuiescent(t, n, 500) {
		got[d.Dst]++
	}
	if len(got) != 63 {
		t.Fatalf("broadcast reached %d nodes, want 63", len(got))
	}
	for node, cnt := range got {
		if cnt != 1 {
			t.Errorf("node %d received %d copies", node, cnt)
		}
	}
	if got[27] != 0 {
		t.Error("source received its own broadcast")
	}
}

func TestBroadcastUnderTinyBuffers(t *testing.T) {
	// With 1-entry buffers many sweeps drop; retransmission must still
	// deliver every node exactly once (served nodes are trimmed from
	// the resent multicast, paper Section 2.1.4).
	n := mustNew(t, func(c *Config) { c.BufferEntries = 1; c.Seed = 3 })
	var all []mesh.NodeID
	for i := mesh.NodeID(1); i < 64; i++ {
		all = append(all, i)
	}
	n.Inject(sim.Message{ID: 1, Src: 0, Dsts: all, Op: packet.OpWriteReq})
	// Add unicast cross-traffic to force contention.
	id := uint64(2)
	for s := mesh.NodeID(8); s < 16; s++ {
		n.Inject(sim.Message{ID: id, Src: s, Dsts: []mesh.NodeID{63 - s}, Op: packet.OpSynthetic})
		id++
	}
	perNode := make(map[mesh.NodeID]int)
	for _, d := range stepUntilQuiescent(t, n, 2000) {
		if d.MsgID == 1 {
			perNode[d.Dst]++
		}
	}
	if len(perNode) != 63 {
		t.Fatalf("broadcast reached %d nodes, want 63", len(perNode))
	}
	for node, cnt := range perNode {
		if cnt != 1 {
			t.Errorf("node %d received %d copies", node, cnt)
		}
	}
}

// TestCachedSweepsStayPristine runs broadcast-heavy traffic through drops,
// bypass relaunches and a fault plan, then checks that every source's
// cached sweeps still equal a fresh packet.BuildBroadcast. Parcels read the
// cache's Delivers through remaining, so a write through that window
// would show here.
func TestCachedSweepsStayPristine(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"bypass", func(c *Config) { c.BufferEntries = 1 }},
		{"no-bypass", func(c *Config) { c.BufferEntries, c.Bypass = 1, false }},
		{"faults", func(c *Config) {
			c.BufferEntries, c.LossTimeout, c.RetryLimit = 2, 600, 6
			c.Faults = &fault.Plan{Seed: 5, CorruptRate: 0.02, Faults: []fault.Fault{
				{Kind: fault.DeadLink, Node: 27, Dir: mesh.North, From: 50, Until: 900},
				{Kind: fault.DeadLink, Node: 12, Dir: mesh.East, From: 200},
				{Kind: fault.StuckRouter, Node: 36, From: 100, Until: 400},
			}}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := mustNew(t, tc.mutate)
			nodes := mesh.NodeID(n.Nodes())
			dsts := make([]mesh.NodeID, 0, nodes)
			var id uint64
			for cycle := 0; cycle < 4000; cycle++ {
				if src := mesh.NodeID(cycle*7) % nodes; cycle < 2000 && n.NICFree(src) > 0 {
					id++
					dsts = append(dsts[:0], (src+29)%nodes)
					if id%3 == 0 {
						dsts = dsts[:0]
						for d := mesh.NodeID(0); d < nodes; d++ {
							if d != src {
								dsts = append(dsts, d)
							}
						}
					}
					n.Inject(sim.Message{ID: id, Src: src, Dsts: dsts, Op: packet.OpReadReq})
				}
				n.Step(nil)
			}
			if n.Run().Drops == 0 {
				t.Error("no drops: the run never retransmitted a sweep")
			}
			for src, sweeps := range n.bcast {
				if sweeps == nil {
					t.Fatalf("source %d never broadcast", src)
				}
				if want := packet.BuildBroadcast(n.m, mesh.NodeID(src), n.cfg.MaxHops); !reflect.DeepEqual(sweeps, want) {
					t.Errorf("source %d: cached sweeps changed during the run", src)
				}
			}
		})
	}
}

func TestNICCapacity(t *testing.T) {
	n := mustNew(t, func(c *Config) { c.NICEntries = 2 })
	if free := n.NICFree(0); free != 2 {
		t.Fatalf("NICFree = %d, want 2", free)
	}
	n.Inject(sim.Message{ID: 1, Src: 0, Dsts: []mesh.NodeID{1}, Op: packet.OpSynthetic})
	n.Inject(sim.Message{ID: 2, Src: 0, Dsts: []mesh.NodeID{2}, Op: packet.OpSynthetic})
	if free := n.NICFree(0); free != 0 {
		t.Fatalf("NICFree = %d, want 0", free)
	}
	defer func() {
		if recover() == nil {
			t.Error("Inject into full NIC did not panic")
		}
	}()
	n.Inject(sim.Message{ID: 3, Src: 0, Dsts: []mesh.NodeID{3}, Op: packet.OpSynthetic})
}

func TestInjectRejectsBadDestinations(t *testing.T) {
	n := mustNew(t, nil)
	for _, dsts := range [][]mesh.NodeID{{0}, {1, 2, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Inject with dsts %v did not panic", dsts)
				}
			}()
			n.Inject(sim.Message{ID: 1, Src: 0, Dsts: dsts, Op: packet.OpSynthetic})
		}()
	}
}

// checkQueueBounds asserts no buffer exceeds its capacity.
func checkQueueBounds(t *testing.T, n *Network) {
	t.Helper()
	for node := range n.routers {
		for d := 0; d < mesh.NumDirs; d++ {
			q := &n.routers[node].queues[d]
			if q.cap >= 0 && q.occupancy() > q.cap && d != int(mesh.Local) {
				t.Fatalf("router %d queue %s over capacity: %d > %d",
					node, mesh.Dir(d), q.occupancy(), q.cap)
			}
			if q.reserved < 0 {
				t.Fatalf("router %d queue %s negative reservation", node, mesh.Dir(d))
			}
		}
	}
}

// Property: under heavy random unicast load with small buffers, every
// message is delivered exactly once, buffers never overflow, and the
// network drains.
func TestConservationUnderLoad(t *testing.T) {
	for _, buffers := range []int{1, 2, 10, -1} {
		n := mustNew(t, func(c *Config) { c.BufferEntries = buffers; c.Seed = 11 })
		rng := rand.New(rand.NewSource(99))
		injected := make(map[uint64]mesh.NodeID)
		var id uint64
		for cycle := 0; cycle < 300; cycle++ {
			for node := mesh.NodeID(0); node < 64; node++ {
				if rng.Float64() < 0.15 && n.NICFree(node) > 0 {
					dst := mesh.NodeID(rng.Intn(64))
					if dst == node {
						continue
					}
					id++
					n.Inject(sim.Message{ID: id, Src: node, Dsts: []mesh.NodeID{dst}, Op: packet.OpSynthetic})
					injected[id] = dst
				}
			}
			n.Step(nil)
			checkQueueBounds(t, n)
		}
		delivered := make(map[uint64]int)
		for i := 0; i < 20000 && !n.Quiescent(); i++ {
			for _, d := range n.Step(nil) {
				if injected[d.MsgID] != d.Dst {
					t.Fatalf("buffers=%d: msg %d delivered to %d, want %d", buffers, d.MsgID, d.Dst, injected[d.MsgID])
				}
				delivered[d.MsgID]++
			}
		}
		// Deliveries during the injection phase were not collected
		// above; re-run bookkeeping style: count only completeness.
		if !n.Quiescent() {
			t.Fatalf("buffers=%d: network failed to drain", buffers)
		}
		for msg, cnt := range delivered {
			if cnt != 1 {
				t.Fatalf("buffers=%d: msg %d delivered %d times", buffers, msg, cnt)
			}
		}
	}
}

// Property: full conservation - collect deliveries from injection on, and
// verify the delivered set equals the injected set exactly.
func TestExactOnceDelivery(t *testing.T) {
	n := mustNew(t, func(c *Config) { c.BufferEntries = 2; c.Seed = 5 })
	rng := rand.New(rand.NewSource(42))
	injected := make(map[uint64]bool)
	delivered := make(map[uint64]int)
	var id uint64
	collect := func(ds []sim.Delivery) {
		for _, d := range ds {
			delivered[d.MsgID]++
		}
	}
	for cycle := 0; cycle < 500; cycle++ {
		for node := mesh.NodeID(0); node < 64; node++ {
			if rng.Float64() < 0.2 && n.NICFree(node) > 0 {
				dst := mesh.NodeID(rng.Intn(64))
				if dst == node {
					continue
				}
				id++
				injected[id] = true
				n.Inject(sim.Message{ID: id, Src: node, Dsts: []mesh.NodeID{dst}, Op: packet.OpSynthetic})
			}
		}
		collect(n.Step(nil))
	}
	for i := 0; i < 30000 && !n.Quiescent(); i++ {
		collect(n.Step(nil))
	}
	if !n.Quiescent() {
		t.Fatal("network failed to drain")
	}
	if len(delivered) != len(injected) {
		t.Fatalf("delivered %d distinct messages, injected %d", len(delivered), len(injected))
	}
	for msg, cnt := range delivered {
		if cnt != 1 || !injected[msg] {
			t.Fatalf("msg %d delivered %d times (injected=%v)", msg, cnt, injected[msg])
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int64, int64, int64) {
		n := mustNew(t, func(c *Config) { c.BufferEntries = 1; c.Seed = 13 })
		rng := rand.New(rand.NewSource(1))
		var id uint64
		for cycle := 0; cycle < 200; cycle++ {
			for node := mesh.NodeID(0); node < 64; node++ {
				if rng.Float64() < 0.3 && n.NICFree(node) > 0 {
					dst := mesh.NodeID(rng.Intn(64))
					if dst == node {
						continue
					}
					id++
					n.Inject(sim.Message{ID: id, Src: node, Dsts: []mesh.NodeID{dst}, Op: packet.OpSynthetic})
				}
			}
			n.Step(nil)
		}
		r := n.Run()
		return r.Drops, r.Retries, r.LinkTraversals
	}
	d1, r1, l1 := run()
	d2, r2, l2 := run()
	if d1 != d2 || r1 != r2 || l1 != l2 {
		t.Errorf("non-deterministic: (%d,%d,%d) vs (%d,%d,%d)", d1, r1, l1, d2, r2, l2)
	}
}

func TestBypassDisabledStillDelivers(t *testing.T) {
	n := mustNew(t, func(c *Config) { c.Bypass = false; c.BufferEntries = 2; c.Seed = 17 })
	var id uint64
	injected := 0
	for s := mesh.NodeID(0); s < 8; s++ {
		id++
		n.Inject(sim.Message{ID: id, Src: s, Dsts: []mesh.NodeID{63 - s}, Op: packet.OpSynthetic})
		injected++
	}
	ds := stepUntilQuiescent(t, n, 2000)
	if len(ds) != injected {
		t.Errorf("delivered %d, want %d", len(ds), injected)
	}
}

func TestInfiniteBuffersNeverDrop(t *testing.T) {
	n := mustNew(t, func(c *Config) { c.BufferEntries = -1; c.Seed = 19 })
	rng := rand.New(rand.NewSource(2))
	var id uint64
	for cycle := 0; cycle < 200; cycle++ {
		for node := mesh.NodeID(0); node < 64; node++ {
			if rng.Float64() < 0.4 && n.NICFree(node) > 0 {
				dst := mesh.NodeID(rng.Intn(64))
				if dst == node {
					continue
				}
				id++
				n.Inject(sim.Message{ID: id, Src: node, Dsts: []mesh.NodeID{dst}, Op: packet.OpSynthetic})
			}
		}
		n.Step(nil)
	}
	if n.Run().Drops != 0 {
		t.Errorf("infinite buffers dropped %d packets", n.Run().Drops)
	}
}

func TestEnergyAccountingAccumulates(t *testing.T) {
	n := mustNew(t, nil)
	n.Inject(sim.Message{ID: 1, Src: 0, Dsts: []mesh.NodeID{7}, Op: packet.OpSynthetic})
	stepUntilQuiescent(t, n, 50)
	r := n.Run()
	if r.OpticalEnergyPJ <= 0 || r.ElectricalEnergyPJ <= 0 || r.LeakagePJ <= 0 {
		t.Errorf("energy not accumulating: optical=%v electrical=%v leakage=%v",
			r.OpticalEnergyPJ, r.ElectricalEnergyPJ, r.LeakagePJ)
	}
}

func TestLargeMeshUnicastDelivery(t *testing.T) {
	// 16x16: the corner-to-corner route (30 links) exceeds the 14-group
	// control format and relies on truncation + interim rebuild.
	n := mustNew(t, func(c *Config) { c.Width = 16; c.Height = 16 })
	n.Inject(sim.Message{ID: 1, Src: 0, Dsts: []mesh.NodeID{255}, Op: packet.OpSynthetic})
	ds := stepUntilQuiescent(t, n, 100)
	if len(ds) != 1 || ds[0].Dst != 255 {
		t.Fatalf("deliveries = %v", ds)
	}
	if got := n.Run().LinkTraversals; got != 30 {
		t.Errorf("link traversals = %d, want 30", got)
	}
}

func TestLargeMeshBroadcastDelivery(t *testing.T) {
	n := mustNew(t, func(c *Config) { c.Width = 16; c.Height = 16; c.BufferEntries = 4 })
	var all []mesh.NodeID
	for i := mesh.NodeID(0); i < 256; i++ {
		if i != 137 {
			all = append(all, i)
		}
	}
	n.Inject(sim.Message{ID: 1, Src: 137, Dsts: all, Op: packet.OpWriteReq})
	served := map[mesh.NodeID]int{}
	for _, d := range stepUntilQuiescent(t, n, 3000) {
		served[d.Dst]++
	}
	if len(served) != 255 {
		t.Fatalf("broadcast reached %d nodes, want 255", len(served))
	}
	for node, c := range served {
		if c != 1 {
			t.Errorf("node %d served %d times", node, c)
		}
	}
}

func TestLargeMeshRequiresBypass(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Width, cfg.Height = 16, 16
	cfg.Bypass = false
	if err := cfg.Validate(); err == nil {
		t.Error("16x16 without bypass should fail validation")
	}
}

func TestUnicastBroadcastAblation(t *testing.T) {
	n := mustNew(t, func(c *Config) { c.UnicastBroadcast = true })
	var all []mesh.NodeID
	for i := mesh.NodeID(1); i < 64; i++ {
		all = append(all, i)
	}
	n.Inject(sim.Message{ID: 1, Src: 0, Dsts: all, Op: packet.OpWriteReq})
	served := map[mesh.NodeID]int{}
	for _, d := range stepUntilQuiescent(t, n, 3000) {
		served[d.Dst]++
	}
	if len(served) != 63 {
		t.Fatalf("unicast storm reached %d nodes, want 63", len(served))
	}
}

func TestRoundRobinTurnsStillDelivers(t *testing.T) {
	n := mustNew(t, func(c *Config) { c.RoundRobinTurns = true; c.BufferEntries = 2; c.Seed = 23 })
	var id uint64
	for s := mesh.NodeID(0); s < 16; s++ {
		id++
		n.Inject(sim.Message{ID: id, Src: s, Dsts: []mesh.NodeID{63 - s}, Op: packet.OpSynthetic})
	}
	ds := stepUntilQuiescent(t, n, 2000)
	if len(ds) != int(id) {
		t.Errorf("delivered %d, want %d", len(ds), id)
	}
}

func TestArbiterPoliciesDeliver(t *testing.T) {
	for _, arb := range []Arbiter{ArbRotating, ArbOldestFirst, ArbLongestQueue} {
		n := mustNew(t, func(c *Config) { c.Arbiter = arb; c.BufferEntries = 2; c.Seed = 31 })
		rng := rand.New(rand.NewSource(8))
		injected := 0
		delivered := map[uint64]int{}
		var id uint64
		for cycle := 0; cycle < 150; cycle++ {
			for node := mesh.NodeID(0); node < 64; node++ {
				if rng.Float64() < 0.2 && n.NICFree(node) > 0 {
					dst := mesh.NodeID(rng.Intn(64))
					if dst == node {
						continue
					}
					id++
					injected++
					n.Inject(sim.Message{ID: id, Src: node, Dsts: []mesh.NodeID{dst}, Op: packet.OpSynthetic})
				}
			}
			for _, d := range n.Step(nil) {
				delivered[d.MsgID]++
			}
		}
		for i := 0; i < 20000 && !n.Quiescent(); i++ {
			for _, d := range n.Step(nil) {
				delivered[d.MsgID]++
			}
		}
		if !n.Quiescent() {
			t.Fatalf("%s: failed to drain", arb)
		}
		if len(delivered) != injected {
			t.Fatalf("%s: delivered %d of %d", arb, len(delivered), injected)
		}
		for m, c := range delivered {
			if c != 1 {
				t.Fatalf("%s: msg %d delivered %d times", arb, m, c)
			}
		}
	}
}

func TestArbiterValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Arbiter = Arbiter(99)
	if cfg.Validate() == nil {
		t.Error("unknown arbiter accepted")
	}
	for _, a := range []Arbiter{ArbRotating, ArbOldestFirst, ArbLongestQueue} {
		if a.String() == "" {
			t.Error("arbiter missing name")
		}
	}
	if Arbiter(99).String() == "" {
		t.Error("unknown arbiter name empty")
	}
}

func TestTracerEventSequence(t *testing.T) {
	n := mustNew(t, nil)
	var events []Event
	n.SetTracer(func(e Event) { events = append(events, e) })
	// 0 -> 2: inject at the NIC, launch, one pass at router 1, eject at 2.
	n.Inject(sim.Message{ID: 9, Src: 0, Dsts: []mesh.NodeID{2}, Op: packet.OpSynthetic})
	n.Step(nil)
	want := []EventKind{EventInject, EventLaunch, EventPass, EventEject}
	if len(events) != len(want) {
		t.Fatalf("events = %v", events)
	}
	for i, k := range want {
		if events[i].Kind != k || events[i].MsgID != 9 {
			t.Fatalf("event %d = %v, want kind %v", i, events[i], k)
		}
	}
	if events[0].Node != 0 || events[1].Node != 0 || events[2].Node != 1 || events[3].Node != 2 {
		t.Fatalf("event nodes wrong: %v", events)
	}
	// Tracing off again: no more events.
	n.SetTracer(nil)
	n.Inject(sim.Message{ID: 10, Src: 0, Dsts: []mesh.NodeID{1}, Op: packet.OpSynthetic})
	n.Step(nil)
	if len(events) != len(want) {
		t.Error("events recorded after tracer removed")
	}
}

func TestTracerDropAndRetry(t *testing.T) {
	n := mustNew(t, func(c *Config) { c.BufferEntries = 1; c.Seed = 7 })
	kinds := map[EventKind]int{}
	n.SetTracer(func(e Event) { kinds[e.Kind]++ })
	var id uint64
	for i := 0; i < 15; i++ {
		id++
		n.Inject(sim.Message{ID: id, Src: 0, Dsts: []mesh.NodeID{3}, Op: packet.OpSynthetic})
		id++
		n.Inject(sim.Message{ID: id, Src: 1, Dsts: []mesh.NodeID{3}, Op: packet.OpSynthetic})
	}
	stepUntilQuiescent(t, n, 2000)
	if kinds[EventDrop] == 0 || kinds[EventRetry] == 0 {
		t.Errorf("expected drops and retries in trace: %v", kinds)
	}
	if kinds[EventDrop] != kinds[EventRetry] {
		t.Errorf("drops %d != retries %d", kinds[EventDrop], kinds[EventRetry])
	}
	if kinds[EventEject] != int(id) {
		t.Errorf("ejects %d, want %d", kinds[EventEject], id)
	}
}

func TestEventString(t *testing.T) {
	e := Event{Cycle: 12, Kind: EventLaunch, MsgID: 3, Node: 27, Dir: mesh.North}
	if got := e.String(); got != "c12 launch msg3 @27->N" {
		t.Errorf("Event.String = %q", got)
	}
	for k := EventLaunch; k <= EventRetry; k++ {
		if k.String() == "" {
			t.Error("missing kind name")
		}
	}
}
