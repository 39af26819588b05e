package electrical

import (
	"testing"

	"phastlane/internal/mesh"
	"phastlane/internal/packet"
	"phastlane/internal/sim"
)

// TestCheckInvariantsDetectsUnlistedBusyRouter clears a busy router's
// active-set bit and asserts the telemetry invariant check notices — a
// passing watchdog is evidence, not vacuity.
func TestCheckInvariantsDetectsUnlistedBusyRouter(t *testing.T) {
	n := New(DefaultConfig())
	n.Inject(sim.Message{ID: 1, Src: 3, Dsts: []mesh.NodeID{9}, Op: packet.OpSynthetic})
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("fresh inject: %v", err)
	}
	if !n.busy(3) || !n.active.Has(3) {
		t.Fatal("inject did not make router 3 busy and active")
	}
	n.active.Remove(3)
	if err := n.CheckInvariants(); err == nil {
		t.Error("busy router outside the active set not detected")
	}
	n.active.Add(3)
}

// TestActiveRoutersTracksLoad drives a few cycles and checks the
// active-set size report stays within [1, nodes] while work exists.
func TestActiveRoutersTracksLoad(t *testing.T) {
	n := New(DefaultConfig())
	if n.ActiveRouters() != 0 {
		t.Fatalf("idle network reports %d active routers", n.ActiveRouters())
	}
	n.Inject(sim.Message{ID: 1, Src: 0, Dsts: []mesh.NodeID{63}, Op: packet.OpSynthetic})
	var buf []sim.Delivery
	for i := 0; i < 100 && !n.Quiescent(); i++ {
		if a := n.ActiveRouters(); a < 1 || a > n.Nodes() {
			t.Fatalf("active routers = %d with work in flight", a)
		}
		buf = n.Step(buf[:0])
	}
	if !n.Quiescent() {
		t.Fatal("single message did not drain in 100 cycles")
	}
}
