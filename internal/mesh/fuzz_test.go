package mesh_test

import (
	"testing"

	"phastlane/internal/mesh"
)

// FuzzRouteWalk checks the dimension-order router on arbitrary mesh
// geometries and node pairs: the route has exactly HopDistance links,
// walking it neighbor by neighbor never leaves the mesh, it ends at the
// destination, and it turns at most once (X then Y).
func FuzzRouteWalk(f *testing.F) {
	f.Add(uint8(8), uint8(8), uint16(0), uint16(63))
	f.Add(uint8(8), uint8(8), uint16(63), uint16(0))
	f.Add(uint8(1), uint8(1), uint16(0), uint16(0))
	f.Add(uint8(32), uint8(1), uint16(31), uint16(0))
	f.Add(uint8(3), uint8(7), uint16(20), uint16(20))
	f.Fuzz(func(t *testing.T, w, h uint8, srcRaw, dstRaw uint16) {
		width := int(w%32) + 1
		height := int(h%32) + 1
		m := mesh.New(width, height)
		nodes := m.Nodes()
		src := mesh.NodeID(int(srcRaw) % nodes)
		dst := mesh.NodeID(int(dstRaw) % nodes)

		route := m.Route(src, dst)
		if len(route) != m.HopDistance(src, dst) {
			t.Fatalf("route has %d links, HopDistance says %d", len(route), m.HopDistance(src, dst))
		}
		if src == dst && len(route) != 0 {
			t.Fatalf("self-route has %d links", len(route))
		}

		cur := src
		turns := 0
		for i, d := range route {
			next, ok := m.Neighbor(cur, d)
			if !ok {
				t.Fatalf("route leaves the %dx%d mesh at node %d going %s (link %d)", width, height, cur, d, i)
			}
			cur = next
			if i > 0 && route[i-1] != d {
				turns++
			}
		}
		if cur != dst {
			t.Fatalf("route from %d ends at %d, want %d", src, cur, dst)
		}
		if turns > 1 {
			t.Fatalf("dimension-order route turns %d times: %v", turns, route)
		}

		// RouteNodes must agree with the walk, endpoints included.
		rn := m.RouteNodes(src, dst)
		if len(rn) != len(route)+1 || rn[0] != src || rn[len(rn)-1] != dst {
			t.Fatalf("RouteNodes endpoints wrong: %v for route %v", rn, route)
		}
		// Every step of RouteNodes stays inside the mesh.
		for _, n := range rn {
			if n < 0 || int(n) >= m.Nodes() {
				t.Fatalf("RouteNodes visits off-mesh node %d", n)
			}
		}
	})
}

// FuzzCoordRoundTrip checks ID/Coord are inverse bijections on any mesh.
func FuzzCoordRoundTrip(f *testing.F) {
	f.Add(uint8(8), uint8(8), uint16(17))
	f.Add(uint8(1), uint8(32), uint16(31))
	f.Fuzz(func(t *testing.T, w, h uint8, idRaw uint16) {
		width := int(w%32) + 1
		height := int(h%32) + 1
		m := mesh.New(width, height)
		id := mesh.NodeID(int(idRaw) % m.Nodes())
		c := m.Coord(id)
		if c.X < 0 || c.X >= width || c.Y < 0 || c.Y >= height {
			t.Fatalf("Coord(%d) = %v outside %dx%d", id, c, width, height)
		}
		if back := m.ID(c); back != id {
			t.Fatalf("ID(Coord(%d)) = %d", id, back)
		}
	})
}
