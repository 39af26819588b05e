package mesh

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCoordRoundTrip(t *testing.T) {
	m := New(8, 8)
	for id := NodeID(0); id < NodeID(m.Nodes()); id++ {
		c := m.Coord(id)
		if got := m.ID(c); got != id {
			t.Errorf("ID(Coord(%d)) = %d", id, got)
		}
		if c.X < 0 || c.X >= 8 || c.Y < 0 || c.Y >= 8 {
			t.Errorf("Coord(%d) = %v outside the 8x8 mesh", id, c)
		}
	}
}

func TestCoordLayoutRowMajor(t *testing.T) {
	m := New(4, 3)
	cases := []struct {
		id NodeID
		c  Coord
	}{
		{0, Coord{0, 0}},
		{3, Coord{3, 0}},
		{4, Coord{0, 1}},
		{11, Coord{3, 2}},
	}
	for _, tc := range cases {
		if got := m.Coord(tc.id); got != tc.c {
			t.Errorf("Coord(%d) = %v, want %v", tc.id, got, tc.c)
		}
	}
}

func TestNeighbor(t *testing.T) {
	m := New(3, 3)
	center := m.ID(Coord{1, 1})
	wants := map[Dir]Coord{
		North: {1, 2},
		South: {1, 0},
		East:  {2, 1},
		West:  {0, 1},
	}
	for d, c := range wants {
		got, ok := m.Neighbor(center, d)
		if !ok || got != m.ID(c) {
			t.Errorf("Neighbor(center, %s) = %d,%v want %d", d, got, ok, m.ID(c))
		}
	}
	// Edges.
	if _, ok := m.Neighbor(m.ID(Coord{0, 0}), West); ok {
		t.Error("Neighbor off west edge should fail")
	}
	if _, ok := m.Neighbor(m.ID(Coord{2, 2}), North); ok {
		t.Error("Neighbor off north edge should fail")
	}
	if _, ok := m.Neighbor(center, Local); ok {
		t.Error("Neighbor(Local) should fail")
	}
}

// refNeighbor is the coordinate form Neighbor replaced, with the id range
// checked first: Coord truncates, so on its own it maps some ids outside
// the mesh onto nodes inside it.
func refNeighbor(m *Mesh, id NodeID, d Dir) (NodeID, bool) {
	if id < 0 || int(id) >= m.Nodes() {
		return 0, false
	}
	c := m.Coord(id)
	switch d {
	case North:
		c.Y++
	case South:
		c.Y--
	case East:
		c.X++
	case West:
		c.X--
	default:
		return 0, false
	}
	if c.X < 0 || c.X >= m.Width() || c.Y < 0 || c.Y >= m.Height() {
		return 0, false
	}
	return m.ID(c), true
}

// TestNeighborMatchesCoordForm compares Neighbor with the coordinate form
// for every node and every Dir value, Local and out-of-range ones
// included, and checks that ids just outside the mesh have no neighbour.
func TestNeighborMatchesCoordForm(t *testing.T) {
	dirs := []Dir{-1, North, East, South, West, Local, NumDirs, 99}
	for _, dim := range [][2]int{{1, 1}, {1, 7}, {7, 1}, {3, 5}, {8, 8}, {64, 64}} {
		m := New(dim[0], dim[1])
		ids := []NodeID{-1, NodeID(m.Nodes()), NodeID(m.Nodes() + m.Width())}
		for id := NodeID(0); int(id) < m.Nodes(); id++ {
			ids = append(ids, id)
		}
		for _, id := range ids {
			for _, d := range dirs {
				got, gotOK := m.Neighbor(id, d)
				want, wantOK := refNeighbor(m, id, d)
				if got != want || gotOK != wantOK {
					t.Fatalf("%dx%d: Neighbor(%d, %s) = %d,%v, coordinate form %d,%v",
						m.Width(), m.Height(), id, d, got, gotOK, want, wantOK)
				}
				if gotOK && (id < 0 || int(id) >= m.Nodes()) {
					t.Fatalf("%dx%d: Neighbor(%d, %s) found a node for an id outside the mesh", m.Width(), m.Height(), id, d)
				}
			}
		}
	}
}

// TestOpposite checks Opposite on every Dir value: the four link
// directions pair up N-S and E-W, and Local and every value that is not a
// direction map to Local.
func TestOpposite(t *testing.T) {
	want := map[Dir]Dir{North: South, East: West, South: North, West: East}
	for d := Dir(-3); d <= NumDirs+3; d++ {
		w, ok := want[d]
		if !ok {
			w = Local
		}
		if got := d.Opposite(); got != w {
			t.Errorf("%s.Opposite() = %s, want %s", d, got, w)
		}
	}
}

func TestTurnFor(t *testing.T) {
	cases := []struct {
		travel, out Dir
		want        Turn
	}{
		{North, North, Straight},
		{North, West, LeftTurn},
		{North, East, RightTurn},
		{East, North, LeftTurn},
		{East, South, RightTurn},
		{South, East, LeftTurn},
		{South, West, RightTurn},
		{West, South, LeftTurn},
		{West, North, RightTurn},
		{West, Local, Eject},
		{North, South, Reverse},
		{South, North, Reverse},
		{East, West, Reverse},
		{West, East, Reverse},
	}
	for _, tc := range cases {
		if got := TurnFor(tc.travel, tc.out); got != tc.want {
			t.Errorf("TurnFor(%s,%s) = %s, want %s", tc.travel, tc.out, got, tc.want)
		}
	}
}

func TestRouteDimensionOrder(t *testing.T) {
	m := New(8, 8)
	src := m.ID(Coord{1, 1})
	dst := m.ID(Coord{4, 6})
	route := m.Route(src, dst)
	want := []Dir{East, East, East, North, North, North, North, North}
	if len(route) != len(want) {
		t.Fatalf("route length %d, want %d", len(route), len(want))
	}
	for i := range want {
		if route[i] != want[i] {
			t.Fatalf("route[%d] = %s, want %s (full %v)", i, route[i], want[i], route)
		}
	}
}

func TestRouteEmptyForSelf(t *testing.T) {
	m := New(8, 8)
	if r := m.Route(5, 5); len(r) != 0 {
		t.Errorf("Route(5,5) = %v, want empty", r)
	}
}

func TestRouteNodesEndpoints(t *testing.T) {
	m := New(8, 8)
	nodes := m.RouteNodes(0, 63)
	if nodes[0] != 0 || nodes[len(nodes)-1] != 63 {
		t.Fatalf("RouteNodes endpoints wrong: %v", nodes)
	}
	if len(nodes) != m.HopDistance(0, 63)+1 {
		t.Fatalf("RouteNodes length %d, want %d", len(nodes), m.HopDistance(0, 63)+1)
	}
}

// Property: routes are minimal (length == Manhattan distance), X-then-Y
// ordered, and land on the destination.
func TestRouteProperties(t *testing.T) {
	m := New(8, 8)
	f := func(srcRaw, dstRaw uint8) bool {
		src := NodeID(int(srcRaw) % m.Nodes())
		dst := NodeID(int(dstRaw) % m.Nodes())
		route := m.Route(src, dst)
		if len(route) != m.HopDistance(src, dst) {
			return false
		}
		// X-then-Y: no horizontal move after a vertical one.
		seenVertical := false
		for _, d := range route {
			vertical := d == North || d == South
			if seenVertical && !vertical {
				return false
			}
			seenVertical = seenVertical || vertical
		}
		// Walk it.
		cur := src
		for _, d := range route {
			next, ok := m.Neighbor(cur, d)
			if !ok {
				return false
			}
			cur = next
		}
		return cur == dst
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: dimension-order routes contain at most one turn, which is what
// lets Phastlane encode each router's action in a single predecoded group.
func TestRouteSingleTurn(t *testing.T) {
	m := New(8, 8)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		src := NodeID(rng.Intn(m.Nodes()))
		dst := NodeID(rng.Intn(m.Nodes()))
		route := m.Route(src, dst)
		turns := 0
		for j := 1; j < len(route); j++ {
			if route[j] != route[j-1] {
				turns++
			}
		}
		if turns > 1 {
			t.Fatalf("route %d->%d has %d turns: %v", src, dst, turns, route)
		}
	}
}

func TestNewPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0, 5) did not panic")
		}
	}()
	New(0, 5)
}

func TestDirString(t *testing.T) {
	if North.String() != "N" || Local.String() != "L" {
		t.Error("Dir.String wrong")
	}
	if Dir(9).String() != "Dir(9)" {
		t.Error("unknown Dir.String wrong")
	}
}
