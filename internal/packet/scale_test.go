package packet

// Large-mesh coverage for the fixed 14-group packet format: routes on
// 32×32 and 64×64 meshes exceed MaxGroups by far, so delivery relies on
// the Section 2.1.3 relaunch chain — BuildControl truncates at an interim
// stop on the 14th router, which assumes responsibility and rebuilds the
// control for the remainder. These tests walk whole chains and pin the
// segment arithmetic.

import (
	"testing"

	"phastlane/internal/mesh"
)

// walkChain follows relaunch segments from src to dst, rebuilding the
// control at every interim stop exactly as a router does, and returns
// (total hops, segments).
func walkChain(t *testing.T, m *mesh.Mesh, src, dst mesh.NodeID) (int, int) {
	t.Helper()
	hops, segments := 0, 0
	cur := src
	for cur != dst {
		c, launch := BuildControl(m, cur, dst)
		if err := c.Validate(); err != nil {
			t.Fatalf("segment %d control invalid: %v", segments, err)
		}
		segments++
		if segments > m.Nodes() {
			t.Fatalf("relaunch chain does not terminate (src %d, dst %d)", src, dst)
		}
		pos, ok := m.Neighbor(cur, launch)
		if !ok {
			t.Fatalf("segment %d launches off the mesh edge", segments)
		}
		travel := launch
		hops++
		for {
			g := c.Shift()
			if g.Zero() {
				t.Fatalf("segment %d ran out of groups before a stop", segments)
			}
			if g&Local != 0 {
				break // final delivery or interim stop; pos takes over
			}
			travel = DirAfterTurn(travel, g)
			pos, ok = m.Neighbor(pos, travel)
			if !ok {
				t.Fatalf("segment %d walks off the mesh edge", segments)
			}
			hops++
		}
		cur = pos
	}
	return hops, segments
}

func TestRelaunchChainLargeMesh(t *testing.T) {
	for _, tc := range []struct {
		w, h         int
		src, dst     mesh.NodeID
		wantSegments int
	}{
		// 32×32 corner to corner: 62 hops = 4 full segments + 6.
		{32, 32, 0, 32*32 - 1, 5},
		// 64×64 corner to corner: 126 hops = exactly 9 full segments.
		{64, 64, 0, 64*64 - 1, 9},
		// 64×64 asymmetric: (0,0) → (63,31) is 94 hops = 6 full + 10.
		{64, 64, 0, 31*64 + 63, 7},
		// Short route on a huge mesh: a single untruncated segment.
		{64, 64, 0, 3, 1},
	} {
		hops, segments := walkChain(t, mesh.New(tc.w, tc.h), tc.src, tc.dst)
		want := mesh.New(tc.w, tc.h).HopDistance(tc.src, tc.dst)
		if hops != want {
			t.Errorf("%dx%d %d→%d: chain covers %d hops, want %d", tc.w, tc.h, tc.src, tc.dst, hops, want)
		}
		if segments != tc.wantSegments {
			t.Errorf("%dx%d %d→%d: %d segments, want %d", tc.w, tc.h, tc.src, tc.dst, segments, tc.wantSegments)
		}
	}
}

// TestRelaunchChainExhaustive64 walks the chain from the corner to every
// node of a 64×64 mesh row/column extreme set, checking the hop total
// against HopDistance each time.
func TestRelaunchChainEdges64(t *testing.T) {
	m := mesh.New(64, 64)
	src := mesh.NodeID(0)
	for _, dst := range []mesh.NodeID{1, 63, 64, 64 * 63, 64*64 - 1, 64*32 + 17, 13*64 + 62} {
		hops, _ := walkChain(t, m, src, dst)
		if want := m.HopDistance(src, dst); hops != want {
			t.Errorf("0→%d: %d hops, want %d", dst, hops, want)
		}
	}
}
