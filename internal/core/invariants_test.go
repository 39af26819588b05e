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
