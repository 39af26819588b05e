package topo

import (
	"fmt"

	"phastlane/internal/mesh"
	"phastlane/internal/packet"
)

// Mesh2D re-expresses the paper's 2D mesh as a Topology. All routing
// methods delegate to the mesh primitives (dimension-order X-then-Y
// routes, packet.BuildControl control words, FaultRouter BFS detours),
// so routes, control bits and detours are bit-identical to the legacy
// direct-call path — the differential tests in this package prove it
// pair by pair.
type Mesh2D struct {
	m  *mesh.Mesh
	fr *mesh.FaultRouter
}

var (
	_ Topology       = (*Mesh2D)(nil)
	_ ControlEncoder = (*Mesh2D)(nil)
	_ FaultRouting   = (*Mesh2D)(nil)
)

// NewMesh2D returns the mesh topology with the given dimensions. It
// panics on non-positive dimensions, like mesh.New.
func NewMesh2D(width, height int) *Mesh2D {
	m := mesh.New(width, height)
	return &Mesh2D{m: m, fr: mesh.NewFaultRouter(m)}
}

// Mesh exposes the underlying geometry for fabric physics that is
// genuinely mesh-specific (the optical walk's per-hop neighbour steps,
// fault-plan validation). Routing must go through the Topology methods.
func (t *Mesh2D) Mesh() *mesh.Mesh { return t.m }

// Name returns "mesh".
func (t *Mesh2D) Name() string { return "mesh" }

// Nodes returns width*height.
func (t *Mesh2D) Nodes() int { return t.m.Nodes() }

// Endpoints equals Nodes: every mesh node has a NIC.
func (t *Mesh2D) Endpoints() int { return t.m.Nodes() }

// Degree returns the four cardinal ports; edge nodes keep the port
// numbers but Neighbor reports the missing links.
func (t *Mesh2D) Degree(mesh.NodeID) int { return mesh.NumLinkDirs }

// Neighbor delegates to the mesh geometry.
func (t *Mesh2D) Neighbor(n mesh.NodeID, p mesh.Dir) (mesh.NodeID, bool) {
	return t.m.Neighbor(n, p)
}

// HopDistance is the Manhattan distance.
func (t *Mesh2D) HopDistance(a, b mesh.NodeID) int { return t.m.HopDistance(a, b) }

// AppendRoute compiles the dimension-order route.
func (t *Mesh2D) AppendRoute(buf []mesh.Dir, src, dst mesh.NodeID) []mesh.Dir {
	return t.m.AppendRoute(buf, src, dst)
}

// PortAt answers random-access route queries via mesh.RouteDir.
func (t *Mesh2D) PortAt(src, dst mesh.NodeID, i int) mesh.Dir {
	return t.m.RouteDir(src, dst, i)
}

// MaxRouteLen is the longest dimension-order route: (w-1)+(h-1) links.
func (t *Mesh2D) MaxRouteLen() int { return t.m.Width() + t.m.Height() - 2 }

// NodeLabel renders "id (x,y)".
func (t *Mesh2D) NodeLabel(n mesh.NodeID) string {
	c := t.m.Coord(n)
	return fmt.Sprintf("%d (%d,%d)", n, c.X, c.Y)
}

// EncodeControl compiles the Phastlane control word via
// packet.BuildControl, in closed form from the route's two legs — the
// canonical encoder, now reached only through this method.
func (t *Mesh2D) EncodeControl(src, dst mesh.NodeID) (packet.Control, mesh.Dir) {
	return packet.BuildControl(t.m, src, dst)
}

// AppendDetour compiles a fault-aware route via the mesh FaultRouter
// (dimension-order fast path, BFS detour fallback). The BFS scratch is
// reused across calls, so AppendDetour is single-goroutine — matching
// the simulators, which each own their topology instance.
func (t *Mesh2D) AppendDetour(buf []mesh.Dir, src, dst mesh.NodeID, usable mesh.LinkUsable) ([]mesh.Dir, bool) {
	return t.fr.AppendRoute(buf, src, dst, usable)
}
