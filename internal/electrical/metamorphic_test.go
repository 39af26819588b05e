package electrical

// Metamorphic tests for the event-driven kernel: transformations of a
// scenario that provably cannot change per-packet behaviour must leave
// the observable results untouched. Unlike the differential suite these
// need no reference implementation — each test checks the kernel against
// a transformed copy of itself.
//
//   - Translation: XY dimension-order routing never leaves the bounding
//     box of source and destination, so traffic confined to a block of a
//     larger mesh behaves identically wherever the block sits. Moving the
//     block permutes the IDs of routers that never see a flit — exactly
//     the inactive-router permutation the active set must be insensitive
//     to.
//   - Idle gaps: once the network is quiescent and credit timers have
//     settled, extra idle cycles are unobservable. Inserting gaps between
//     bursts must not change any packet's latency, the delivered count,
//     or the traversal count.
//   - Saturated slot faults: a port that has lost all its VCs takes no
//     reservation, so losing more slots than it has changes nothing.

import (
	"math/rand"
	"reflect"
	"testing"

	"phastlane/internal/fault"
	"phastlane/internal/mesh"
	"phastlane/internal/obs"
	"phastlane/internal/packet"
	"phastlane/internal/sim"
	"phastlane/internal/stats"
	"phastlane/internal/traffic"
)

// blockEvent is one injection in block-local coordinates.
type blockEvent struct {
	gap      int   // idle cycles before this injection
	src, dst int   // block-local node indices
	dsts     []int // non-nil for multicast
}

// blockSchedule draws a deterministic burst schedule inside a side×side
// block.
func blockSchedule(seed int64, side, events int) []blockEvent {
	r := rand.New(rand.NewSource(seed))
	sched := make([]blockEvent, events)
	for i := range sched {
		ev := blockEvent{gap: r.Intn(4), src: r.Intn(side * side)}
		if r.Intn(8) == 0 {
			for n := 0; n < side*side; n++ {
				if n != ev.src && r.Intn(3) == 0 {
					ev.dsts = append(ev.dsts, n)
				}
			}
		}
		if ev.dsts == nil {
			ev.dst = r.Intn(side*side - 1)
			if ev.dst >= ev.src {
				ev.dst++
			}
		}
		sched[i] = ev
	}
	return sched
}

// latencyKey identifies one (message, block-local destination) delivery.
type latencyKey struct {
	msgID uint64
	local int
}

// runBlock replays sched inside the block at origin (ox,oy) of a cfg-sized
// mesh and returns every delivery's latency plus the final counters.
func runBlock(t *testing.T, cfg Config, ox, oy, side int, sched []blockEvent) (map[latencyKey]int64, *stats.Run) {
	t.Helper()
	n := New(cfg)
	toNode := func(local int) mesh.NodeID {
		return mesh.NodeID((oy+local/side)*cfg.Width + ox + local%side)
	}
	toLocal := make(map[mesh.NodeID]int, side*side)
	for l := 0; l < side*side; l++ {
		toLocal[toNode(l)] = l
	}
	born := map[uint64]int64{}
	lat := map[latencyKey]int64{}
	var cycle int64
	var buf []sim.Delivery
	step := func() {
		buf = n.Step(buf[:0])
		for _, d := range buf {
			local, ok := toLocal[d.Dst]
			if !ok {
				t.Fatalf("delivery at node %d outside the traffic block", d.Dst)
			}
			lat[latencyKey{d.MsgID, local}] = cycle - born[d.MsgID]
		}
		cycle++
	}
	var id uint64
	for _, ev := range sched {
		for g := 0; g < ev.gap; g++ {
			step()
		}
		src := toNode(ev.src)
		if n.NICFree(src) <= 0 {
			step()
			if n.NICFree(src) <= 0 {
				continue // same schedule position skips in every run
			}
		}
		id++
		m := sim.Message{ID: id, Src: src, Op: packet.OpSynthetic}
		for _, d := range ev.dsts {
			m.Dsts = append(m.Dsts, toNode(d))
		}
		if len(m.Dsts) == 0 {
			m.Dsts = []mesh.NodeID{toNode(ev.dst)}
		}
		born[id] = cycle
		n.Inject(m)
		step()
	}
	for i := 0; i < 20000 && !n.Quiescent(); i++ {
		step()
	}
	if !n.Quiescent() {
		t.Fatal("network failed to drain")
	}
	return lat, n.Run()
}

// TestMetamorphicTranslation runs the same block schedule at three
// origins of a 12×10 mesh. Every placement renames the inactive routers;
// nothing observable may change.
func TestMetamorphicTranslation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Width, cfg.Height = 12, 10
	const side = 4
	sched := blockSchedule(42, side, 120)
	base, baseRun := runBlock(t, cfg, 0, 0, side, sched)
	if len(base) == 0 {
		t.Fatal("schedule delivered nothing")
	}
	for _, origin := range []struct{ ox, oy int }{{8, 6}, {5, 3}, {0, 6}} {
		lat, run := runBlock(t, cfg, origin.ox, origin.oy, side, sched)
		if len(lat) != len(base) {
			t.Fatalf("origin (%d,%d): %d deliveries, want %d", origin.ox, origin.oy, len(lat), len(base))
		}
		for k, want := range base {
			if got := lat[k]; got != want {
				t.Errorf("origin (%d,%d): msg %d → local %d latency %d, want %d",
					origin.ox, origin.oy, k.msgID, k.local, got, want)
			}
		}
		if run.Delivered != baseRun.Delivered || run.LinkTraversals != baseRun.LinkTraversals {
			t.Errorf("origin (%d,%d): delivered/traversals %d/%d, want %d/%d",
				origin.ox, origin.oy, run.Delivered, run.LinkTraversals, baseRun.Delivered, baseRun.LinkTraversals)
		}
		if run.ElectricalEnergyPJ != baseRun.ElectricalEnergyPJ {
			t.Errorf("origin (%d,%d): dynamic energy %v, want %v (bit-identical)",
				origin.ox, origin.oy, run.ElectricalEnergyPJ, baseRun.ElectricalEnergyPJ)
		}
	}
}

// runGapped replays bursts of unicast traffic, draining to quiescence
// between bursts and then idling for settle+gap extra cycles, and returns
// per-packet latencies and the final counters.
func runGapped(t *testing.T, cfg Config, gap int) (map[latencyKey]int64, *stats.Run) {
	t.Helper()
	n := New(cfg)
	nodes := cfg.Width * cfg.Height
	r := rand.New(rand.NewSource(7))
	born := map[uint64]int64{}
	lat := map[latencyKey]int64{}
	var cycle int64
	var buf []sim.Delivery
	step := func() {
		buf = n.Step(buf[:0])
		for _, d := range buf {
			lat[latencyKey{d.MsgID, int(d.Dst)}] = cycle - born[d.MsgID]
		}
		cycle++
	}
	var id uint64
	for burst := 0; burst < 12; burst++ {
		for k := 0; k < 6; k++ {
			src := mesh.NodeID(r.Intn(nodes))
			dst := mesh.NodeID(r.Intn(nodes - 1))
			if dst >= src {
				dst++
			}
			for n.NICFree(src) <= 0 {
				step()
			}
			id++
			born[id] = cycle
			n.Inject(sim.Message{ID: id, Src: src, Dsts: []mesh.NodeID{dst}, Op: packet.OpSynthetic})
			if k%2 == 0 {
				step()
			}
		}
		for i := 0; i < 20000 && !n.Quiescent(); i++ {
			step()
		}
		// Settle past any in-flight credit timers so the pre-burst state
		// is cycle-invariant, then insert the metamorphic gap.
		for g := 0; g < 4*cfg.RouterDelay+8+gap; g++ {
			step()
		}
	}
	return lat, n.Run()
}

// TestMetamorphicIdleGaps inserts idle gaps between quiescent bursts:
// per-packet latencies, delivered counts and traversals must not move.
func TestMetamorphicIdleGaps(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Width, cfg.Height = 6, 6
	base, baseRun := runGapped(t, cfg, 0)
	if len(base) == 0 {
		t.Fatal("schedule delivered nothing")
	}
	for _, gap := range []int{1, 37, 256} {
		lat, run := runGapped(t, cfg, gap)
		if len(lat) != len(base) {
			t.Fatalf("gap %d: %d deliveries, want %d", gap, len(lat), len(base))
		}
		for k, want := range base {
			if got := lat[k]; got != want {
				t.Errorf("gap %d: msg %d → node %d latency %d, want %d", gap, k.msgID, k.local, got, want)
			}
		}
		if run.Delivered != baseRun.Delivered || run.LinkTraversals != baseRun.LinkTraversals {
			t.Errorf("gap %d: delivered/traversals %d/%d, want %d/%d",
				gap, run.Delivered, run.LinkTraversals, baseRun.Delivered, baseRun.LinkTraversals)
		}
	}
}

// TestMetamorphicSlotFaultSaturates runs the 8×8 default under uniform
// traffic with router 27's West input port losing buffer slots over
// [from, until): once exactly VCs slots, once 25 slots plus an
// overlapping window of 7. fault.Injector.LostSlots sums overlapping
// windows and Slots has no upper bound, so the second limit is far below
// zero. Both runs must give the same sim.Result, neither may panic, and
// the port must take no reservation while the fault is active. Outside
// the window the port takes reservations, and inside it router 26 stalls
// for credits toward it, so the check is not vacuous.
func TestMetamorphicSlotFaultSaturates(t *testing.T) {
	const node, port, from, until = 27, mesh.West, 300, 700
	type portLog struct{ grantsOutside, grantsInside, stallsInside int }
	run := func(faults ...fault.Fault) (sim.Result, portLog) {
		cfg := DefaultConfig()
		cfg.Faults = &fault.Plan{Faults: faults}
		cfg.LossTimeout = 300
		n := New(cfg)
		var log portLog
		n.SetTracer(func(e obs.Event) {
			if next, ok := n.m.Neighbor(e.Node, e.Dir); !ok || next != node || e.Dir.Opposite() != port {
				return
			}
			inside := e.Cycle >= from && e.Cycle < until
			switch {
			case e.Kind == obs.KindVCAlloc && inside:
				log.grantsInside++
			case e.Kind == obs.KindVCAlloc:
				log.grantsOutside++
			case e.Kind == obs.KindCreditStall && inside:
				log.stallsInside++
			}
		})
		res := sim.RunRate(n, sim.RateConfig{
			Pattern: traffic.UniformRandom(64, 3),
			Rate:    0.1,
			Warmup:  200, Measure: 800, DrainLimit: 20000,
			Seed: 5,
		})
		return res, log
	}
	slots := func(n int, lo, hi int64) fault.Fault {
		return fault.Fault{Kind: fault.BufferSlots, Node: node, Dir: port, Slots: n, From: lo, Until: hi}
	}
	exact, exactLog := run(slots(DefaultConfig().VCs, from, until))
	over, overLog := run(slots(25, from, until), slots(7, from+100, until-100))
	for name, log := range map[string]portLog{"Slots = VCs": exactLog, "Slots = 25 + 7": overLog} {
		if log.grantsInside != 0 || log.grantsOutside == 0 || log.stallsInside == 0 {
			t.Errorf("%s: port log %+v; want no grants inside the window, some outside, and stalls inside", name, log)
		}
	}
	if !reflect.DeepEqual(exact, over) {
		t.Errorf("slot faults past the VC count changed the result:\nSlots = VCs:    %+v\nSlots = 25 + 7: %+v", exact, over)
	}
}
