// Package mesh models the 2D mesh topology underlying both the Phastlane
// optical network and the electrical baseline: node coordinates, port
// directions, and minimal dimension-order (X-then-Y) routes.
//
// The paper evaluates an 8x8 mesh of 64 nodes, but every function here is
// parameterised by the mesh radix so smaller meshes can be used in tests and
// examples.
package mesh

import "fmt"

// NodeID identifies a node (router + attached core/cache/memory-controller
// tile) in row-major order: id = y*width + x.
type NodeID int

// Dir is a port direction on a router. Local is the port facing the attached
// node (NIC); the four cardinal directions face neighbouring routers.
type Dir int

// Port directions. The zero value is North so that fixed-priority
// arbitration order (N, E, S, W) matches iteration order.
const (
	North Dir = iota
	East
	South
	West
	Local
	NumDirs = 5 // including Local
	// NumLinkDirs counts only the four inter-router directions.
	NumLinkDirs = 4
)

// String returns the conventional single-letter name of the direction.
func (d Dir) String() string {
	switch d {
	case North:
		return "N"
	case East:
		return "E"
	case South:
		return "S"
	case West:
		return "W"
	case Local:
		return "L"
	default:
		return fmt.Sprintf("Dir(%d)", int(d))
	}
}

// Opposite returns the direction a packet arriving from d travels toward,
// i.e. the port on the neighbouring router that faces this one; Local for
// Local and for any value that is not a link direction. The compass order
// N, E, S, W puts a link direction's opposite two steps on: bit 1 flipped.
func (d Dir) Opposite() Dir {
	if uint(d) >= NumLinkDirs {
		return Local
	}
	return d ^ 2
}

// Turn describes how a packet moves through a router relative to its input
// port. Phastlane's 5-bit control groups encode exactly these cases plus the
// multicast flag (see package packet).
type Turn int

// Turn kinds, in fixed arbitration priority order: straight-through paths
// have priority over turns (paper Section 2.1).
const (
	Straight Turn = iota
	LeftTurn
	RightTurn
	Eject   // leave the network at this router (Local bit)
	Reverse // double back toward the input port: no control group encodes it
)

// String names the turn for diagnostics.
func (t Turn) String() string {
	switch t {
	case Straight:
		return "straight"
	case LeftTurn:
		return "left"
	case RightTurn:
		return "right"
	case Eject:
		return "eject"
	case Reverse:
		return "reverse"
	default:
		return fmt.Sprintf("Turn(%d)", int(t))
	}
}

// TurnFor classifies the movement from input direction in (the direction of
// travel, not the port name) to output direction out. Travelling North and
// exiting West is a left turn, exiting East a right turn, exiting South a
// reversal.
func TurnFor(travel, out Dir) Turn {
	switch out {
	case travel:
		return Straight
	case Local:
		return Eject
	case travel.Turned(LeftTurn):
		return LeftTurn
	case travel.Turned(RightTurn):
		return RightTurn
	default:
		return Reverse
	}
}

// Turned returns the direction a packet travelling d leaves in after turn
// t, one of the turns a control group encodes. The compass order N, E, S,
// W puts a right turn one step clockwise and a left turn one step
// counter-clockwise; Eject leaves toward Local.
func (d Dir) Turned(t Turn) Dir {
	switch t {
	case Straight:
		return d
	case LeftTurn:
		return (d + NumLinkDirs - 1) % NumLinkDirs
	case RightTurn:
		return (d + 1) % NumLinkDirs
	default:
		return Local
	}
}

// Coord is an (x, y) mesh coordinate. x grows East, y grows North.
type Coord struct {
	X, Y int
}

// String renders the coordinate as "(x,y)".
func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.X, c.Y) }

// Mesh is a width x height 2D mesh. The zero value is not usable; construct
// with New.
type Mesh struct {
	width, height int
}

// New returns a mesh with the given dimensions. It panics if either
// dimension is less than 1 (a configuration error, not a runtime condition).
func New(width, height int) *Mesh {
	if width < 1 || height < 1 {
		panic(fmt.Sprintf("mesh: invalid dimensions %dx%d", width, height))
	}
	return &Mesh{width: width, height: height}
}

// Width returns the number of columns.
func (m *Mesh) Width() int { return m.width }

// Height returns the number of rows.
func (m *Mesh) Height() int { return m.height }

// Nodes returns the total node count.
func (m *Mesh) Nodes() int { return m.width * m.height }

// Coord returns the coordinate of id.
func (m *Mesh) Coord(id NodeID) Coord {
	return Coord{X: int(id) % m.width, Y: int(id) / m.width}
}

// ID returns the node at coordinate c.
func (m *Mesh) ID(c Coord) NodeID { return NodeID(c.Y*m.width + c.X) }

// Neighbor returns the node adjacent to id in direction d and true. It
// returns 0 and false at a mesh edge, for an id outside [0, Nodes()), and
// for a direction that is not a link (Local or out of range). It steps on
// the row-major id directly: a row is width ids, so only an East or West
// step needs the column, one modulo.
func (m *Mesh) Neighbor(id NodeID, d Dir) (NodeID, bool) {
	nodes := m.width * m.height
	if uint(id) >= uint(nodes) {
		return 0, false
	}
	switch d {
	case North:
		if next := id + NodeID(m.width); int(next) < nodes {
			return next, true
		}
	case South:
		if next := id - NodeID(m.width); next >= 0 {
			return next, true
		}
	case East:
		if int(id)%m.width != m.width-1 {
			return id + 1, true
		}
	case West:
		if int(id)%m.width != 0 {
			return id - 1, true
		}
	}
	return 0, false
}

// HopDistance returns the Manhattan distance between two nodes, which equals
// the number of links a minimal route traverses.
func (m *Mesh) HopDistance(a, b NodeID) int {
	ca, cb := m.Coord(a), m.Coord(b)
	return abs(ca.X-cb.X) + abs(ca.Y-cb.Y)
}

// Route returns the sequence of travel directions of the dimension-order
// (X-then-Y) minimal route from src to dst. The slice has HopDistance
// entries; it is empty when src == dst. Dimension-order routing performs at
// most one turn, which keeps Phastlane's per-router control to a single
// 5-bit group and guarantees deadlock freedom in the electrical baseline.
//
// Ownership: route compilation belongs to the topology layer — simulators
// and harnesses route through a topo.Topology (AppendRoute/PortAt), and
// topo.Mesh2D delegates to the primitives here. Direct calls outside
// internal/topo and geometry-level tests are deprecated.
func (m *Mesh) Route(src, dst NodeID) []Dir {
	return m.AppendRoute(nil, src, dst)
}

// AppendRoute appends the dimension-order route from src to dst to buf and
// returns the extended slice — the allocation-free form of Route for hot
// paths that reuse a scratch buffer across calls.
func (m *Mesh) AppendRoute(buf []Dir, src, dst NodeID) []Dir {
	h, a, v, b := m.Legs(src, dst)
	for ; a > 0; a-- {
		buf = append(buf, h)
	}
	for ; b > 0; b-- {
		buf = append(buf, v)
	}
	return buf
}

// Legs returns the dimension-order route from src to dst as its two legs:
// a links travelling h (East or West), then b links travelling v (North or
// South). A leg of no links still names a direction: East or North.
func (m *Mesh) Legs(src, dst NodeID) (h Dir, a int, v Dir, b int) {
	cs, cd := m.Coord(src), m.Coord(dst)
	h, a = East, cd.X-cs.X
	if a < 0 {
		h, a = West, -a
	}
	v, b = North, cd.Y-cs.Y
	if b < 0 {
		v, b = South, -b
	}
	return h, a, v, b
}

// RouteDir returns the i-th travel direction (0-based) of the
// dimension-order route from src to dst without materialising the route
// slice — the allocation-free form of Route(src, dst)[i] for hot paths
// that only need one step (next-hop lookup, control rebuilds). i must be
// in [0, HopDistance(src, dst)); out-of-range indices panic.
func (m *Mesh) RouteDir(src, dst NodeID, i int) Dir {
	h, a, v, b := m.Legs(src, dst)
	switch {
	case i >= 0 && i < a:
		return h
	case i >= a && i < a+b:
		return v
	}
	panic(fmt.Sprintf("mesh: RouteDir index out of range for route %d->%d", src, dst))
}

// RouteNodes returns the nodes visited by the dimension-order route from src
// to dst, inclusive of both endpoints.
func (m *Mesh) RouteNodes(src, dst NodeID) []NodeID {
	dirs := m.Route(src, dst)
	nodes := make([]NodeID, 0, len(dirs)+1)
	nodes = append(nodes, src)
	cur := src
	for _, d := range dirs {
		next, ok := m.Neighbor(cur, d)
		if !ok {
			panic(fmt.Sprintf("mesh: route from %d to %d walks off the mesh at %d going %s", src, dst, cur, d))
		}
		cur = next
		nodes = append(nodes, cur)
	}
	return nodes
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
