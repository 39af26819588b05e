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

// TestCheckInvariantsDetectsMaskDrift flips one bit of each router mask
// in turn and asserts the audit notices every one. Router 3's packet to
// node 9 sits in local VC 0 (bit 40) after one cycle, holding a VC on
// node 2's East port (bit 10) toward the West.
func TestCheckInvariantsDetectsMaskDrift(t *testing.T) {
	n := New(DefaultConfig())
	n.Inject(sim.Message{ID: 1, Src: 3, Dsts: []mesh.NodeID{9}, Op: packet.OpSynthetic})
	n.Step(nil)
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("after one cycle: %v", err)
	}
	src, down := &n.routers[3], &n.routers[2]
	if src.held[mesh.West] != 1<<40 || !down.vcs[10].reserved {
		t.Fatalf("unexpected start: held[West] %#x, node 2 VC 10 reserved %v", src.held[mesh.West], down.vcs[10].reserved)
	}
	for _, c := range []struct {
		name string
		mask *uint64
		bit  uint
	}{
		{"occupied VC marked free", &src.free, 40},
		{"reserved VC marked free", &down.free, 10},
		{"free VC marked taken", &down.free, 11},
		{"credit for an occupied VC", &src.credits, 40},
		{"credit for a free VC", &down.credits, 11},
		{"occupied bit cleared", &src.occupied, 40},
		{"held replication dropped", &src.held[mesh.West], 40},
		{"held replication also wanted", &src.want[mesh.West], 40},
		{"replication the VC lacks", &src.want[mesh.North], 40},
		{"want on an empty VC", &down.want[mesh.South], 0},
	} {
		*c.mask ^= 1 << c.bit
		if err := n.CheckInvariants(); err == nil {
			t.Errorf("%s: not detected", c.name)
		}
		*c.mask ^= 1 << c.bit
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("after restoring every mask: %v", err)
	}
}
