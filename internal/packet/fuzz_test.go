package packet_test

import (
	"testing"

	"phastlane/internal/mesh"
	"phastlane/internal/packet"
)

// FuzzBuildControlRouteWalk drives BuildControl over arbitrary mesh
// geometries and node pairs, then walks the resulting control hop by hop:
// the walk must stay on the mesh, the control must validate, and the
// packet must eject exactly at the destination (or at a truncation-interim
// stop strictly before it on oversized meshes).
func FuzzBuildControlRouteWalk(f *testing.F) {
	f.Add(uint8(8), uint8(8), uint16(0), uint16(63))
	f.Add(uint8(8), uint8(8), uint16(63), uint16(0))
	f.Add(uint8(2), uint8(2), uint16(1), uint16(2))
	f.Add(uint8(16), uint8(16), uint16(0), uint16(255))
	f.Add(uint8(1), uint8(9), uint16(3), uint16(8))
	f.Fuzz(func(t *testing.T, w, h uint8, srcRaw, dstRaw uint16) {
		width := int(w%16) + 1
		height := int(h%16) + 1
		m := mesh.New(width, height)
		nodes := m.Nodes()
		if nodes < 2 {
			t.Skip("mesh too small for a route")
		}
		src := mesh.NodeID(int(srcRaw) % nodes)
		dst := mesh.NodeID(int(dstRaw) % nodes)
		if src == dst {
			t.Skip("BuildControl is defined for distinct endpoints only")
		}
		ctl, launch := packet.BuildControl(m, src, dst)
		if err := ctl.Validate(); err != nil {
			t.Fatalf("BuildControl(%dx%d, %d->%d) invalid: %v", width, height, src, dst, err)
		}
		truncated := m.HopDistance(src, dst) > packet.MaxGroups

		cur := src
		travel := launch
		for i := 0; i < ctl.Used(); i++ {
			next, ok := m.Neighbor(cur, travel)
			if !ok {
				t.Fatalf("walk leaves the mesh at node %d going %s (group %d)", cur, travel, i)
			}
			cur = next
			g := ctl.Group(i)
			last := i == ctl.Used()-1
			switch {
			case g.Interim():
				if !last || !truncated {
					t.Fatalf("unexpected interim group %d on a %d-hop route", i, m.HopDistance(src, dst))
				}
				if cur == dst {
					t.Fatalf("truncation interim landed on the destination")
				}
			case g&packet.Local != 0:
				if !last {
					t.Fatalf("eject group %d before the end of the control", i)
				}
				if cur != dst {
					t.Fatalf("walk ejects at %d, want %d", cur, dst)
				}
			default:
				travel = packet.DirAfterTurn(travel, g)
			}
		}
		if !truncated && cur != dst {
			t.Fatalf("walk ended at %d, want %d", cur, dst)
		}
	})
}

// FuzzControlShiftStability checks that shifting a built control consumes
// groups one by one without ever producing an invalid intermediate state.
func FuzzControlShiftStability(f *testing.F) {
	f.Add(uint8(8), uint16(0), uint16(63))
	f.Add(uint8(4), uint16(5), uint16(10))
	f.Fuzz(func(t *testing.T, w uint8, srcRaw, dstRaw uint16) {
		width := int(w%15) + 2
		m := mesh.New(width, width)
		nodes := m.Nodes()
		src := mesh.NodeID(int(srcRaw) % nodes)
		dst := mesh.NodeID(int(dstRaw) % nodes)
		if src == dst {
			t.Skip()
		}
		ctl, _ := packet.BuildControl(m, src, dst)
		used := ctl.Used()
		for i := 0; i < used; i++ {
			head := ctl.Head()
			if shifted := ctl.Shift(); shifted != head {
				t.Fatalf("Shift returned %+v, Head promised %+v", shifted, head)
			}
			if ctl.Used() != used-i-1 {
				t.Fatalf("Used = %d after %d shifts, want %d", ctl.Used(), i+1, used-i-1)
			}
		}
		if !ctl.Head().Zero() {
			t.Fatalf("drained control still has a head: %+v", ctl.Head())
		}
	})
}
