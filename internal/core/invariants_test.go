package core

import (
	"testing"

	"phastlane/internal/mesh"
	"phastlane/internal/packet"
	"phastlane/internal/sim"
)

// TestCheckInvariantsDetectsLiveDrift corrupts the live-parcel counter
// and asserts the telemetry invariant check notices — a passing
// watchdog is evidence, not vacuity.
func TestCheckInvariantsDetectsLiveDrift(t *testing.T) {
	n := New(DefaultConfig())
	n.Inject(sim.Message{ID: 1, Src: 3, Dsts: []mesh.NodeID{9}, Op: packet.OpSynthetic})
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("fresh inject: %v", err)
	}
	n.live++
	if err := n.CheckInvariants(); err == nil {
		t.Error("live-count drift not detected")
	}
	n.live--
}

// TestCheckInvariantsHoldsAcrossDropWindows runs a hot multicast-heavy
// load (drops and retries guaranteed) and audits the live-parcel
// accounting between every pair of Steps, covering the pending-dropped
// record case.
func TestCheckInvariantsHoldsAcrossDropWindows(t *testing.T) {
	n := New(DefaultConfig())
	var id uint64
	var buf []sim.Delivery
	// Hotspot load: every seventh router fires unicasts at node 0, so
	// link contention forces drops and retries.
	dsts := []mesh.NodeID{0}
	for cycle := 0; cycle < 2000; cycle++ {
		for src := 7; src < n.Nodes(); src += 7 {
			if n.NICFree(mesh.NodeID(src)) > 0 {
				id++
				n.Inject(sim.Message{ID: id, Src: mesh.NodeID(src), Dsts: dsts, Op: packet.OpSynthetic})
			}
		}
		buf = n.Step(buf[:0])
		if err := n.CheckInvariants(); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
	}
	if n.Run().Drops == 0 {
		t.Error("load never dropped a packet; the pending-dropped case went unexercised")
	}
}

// TestCheckInvariantsDetectsBusyRouterOutsideActiveSet clears a busy
// router's active-set bit and asserts the invariant check notices: launch
// would never visit that router again, stranding its parcels.
func TestCheckInvariantsDetectsBusyRouterOutsideActiveSet(t *testing.T) {
	n := New(DefaultConfig())
	n.Inject(sim.Message{ID: 1, Src: 3, Dsts: []mesh.NodeID{9}, Op: packet.OpSynthetic})
	if !n.routers[3].busy() || !n.active.Has(3) {
		t.Fatal("inject did not make router 3 busy and active")
	}
	n.active.Remove(3)
	if err := n.CheckInvariants(); err == nil {
		t.Error("busy router outside the active set not detected")
	}
	n.active.Add(3)
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("restored set: %v", err)
	}
}

// TestCheckInvariantsDetectsQueueMaskDrift plants one error at a time in
// the launch stage's bookkeeping and asserts the audit notices each: a
// stray occupancy bit (launch would visit an empty queue), a missing one
// (launch would never offer that queue's parcels), and a reserved-slot
// count one off either way (a slot freed twice or never). After one
// cycle, router 3's packet to node 9 has launched from the NIC and been
// delivered, its record holding one NIC slot until the drop window; the
// packet to node 10 needs the same output port and is still queued.
func TestCheckInvariantsDetectsQueueMaskDrift(t *testing.T) {
	n := New(DefaultConfig())
	n.Inject(sim.Message{ID: 1, Src: 3, Dsts: []mesh.NodeID{9}, Op: packet.OpSynthetic})
	n.Inject(sim.Message{ID: 2, Src: 3, Dsts: []mesh.NodeID{10}, Op: packet.OpSynthetic})
	n.Step(nil)
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("after one cycle: %v", err)
	}
	r := &n.routers[3]
	if r.occ != 1<<mesh.Local || len(n.pending) != 1 || r.queues[mesh.Local].reserved != 1 {
		t.Fatalf("unexpected start: occ %#b, %d pending, %d NIC slots reserved",
			r.occ, len(n.pending), r.queues[mesh.Local].reserved)
	}
	for _, c := range []struct {
		name string
		occ  uint8   // flipped in router 3's occupancy mask
		q    *pqueue // its reserved count moves by off
		off  int
	}{
		{name: "stray occupancy bit", occ: 1 << mesh.North},
		{name: "missing occupancy bit", occ: 1 << mesh.Local},
		{name: "reserved slot too many", q: &n.routers[40].queues[mesh.East], off: 1},
		{name: "reserved slot too few", q: &r.queues[mesh.Local], off: -1},
	} {
		r.occ ^= c.occ
		if c.q != nil {
			c.q.reserved += c.off
		}
		if err := n.CheckInvariants(); err == nil {
			t.Errorf("%s: not detected", c.name)
		}
		r.occ ^= c.occ
		if c.q != nil {
			c.q.reserved -= c.off
		}
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("after restoring every count: %v", err)
	}
}

// TestActiveRoutersTracksLoad checks the active-set size report: zero on
// an idle network, within [1, nodes] while parcels are queued, back to
// zero once the network drains (launch clears each router it leaves
// idle), and every router on the dense reference.
func TestActiveRoutersTracksLoad(t *testing.T) {
	n := New(DefaultConfig())
	if a := n.ActiveRouters(); a != 0 {
		t.Fatalf("idle network reports %d active routers", a)
	}
	for i := uint64(0); i < 8; i++ {
		n.Inject(sim.Message{ID: i + 1, Src: mesh.NodeID(i), Dsts: []mesh.NodeID{63 - mesh.NodeID(i)}, Op: packet.OpSynthetic})
	}
	var buf []sim.Delivery
	for i := 0; i < 200 && !n.Quiescent(); i++ {
		if a := n.ActiveRouters(); a < 1 || a > n.Nodes() {
			t.Fatalf("cycle %d: %d active routers with parcels in flight", i, a)
		}
		buf = n.Step(buf[:0])
	}
	if !n.Quiescent() {
		t.Fatal("eight messages did not drain in 200 cycles")
	}
	if a := n.ActiveRouters(); a != 0 {
		t.Errorf("drained network reports %d active routers", a)
	}
	if a := NewReference(DefaultConfig()).ActiveRouters(); a != 64 {
		t.Errorf("dense reference reports %d active routers, want 64", a)
	}
}
