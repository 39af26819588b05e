package packet

// The group-by-group encoders that EncodeRoute replaced, kept as
// references: refControl is the unpacked format (fourteen decoded groups
// and an explicit count), and refBuildControl and refBuildBroadcast build
// it one router at a time. The tests below compare the packed encoders
// against them on every route of a set of meshes.

import (
	"fmt"
	"slices"
	"testing"

	"phastlane/internal/mesh"
)

// refControl is the unpacked control format: Groups[0] is the group the
// next router consumes, Used the number of meaningful groups.
type refControl struct {
	Groups [MaxGroups]Group
	Used   int
}

func (c *refControl) Shift() Group {
	head := c.Groups[0]
	copy(c.Groups[:], c.Groups[1:])
	c.Groups[MaxGroups-1] = Group{}
	if c.Used > 0 {
		c.Used--
	}
	return head
}

func (c *refControl) MarkInterims(maxHops int) {
	for i := maxHops - 1; i < c.Used-1; i += maxHops {
		c.Groups[i].Local = true
	}
}

func (c *refControl) NextStop() int {
	for i := 0; i < c.Used; i++ {
		if c.Groups[i].Local {
			return i + 1
		}
	}
	return c.Used
}

// segment is the launch energy's segment: NextStop and the multicast
// groups before the stop.
func (c *refControl) segment() (links, taps int) {
	links = c.NextStop()
	for i := 0; i < links-1; i++ {
		if c.Groups[i].Multicast {
			taps++
		}
	}
	return links, taps
}

// truncate turns the last group of a route cut at MaxGroups into an
// interim stop that relaunches toward cont.
func (c *refControl) truncate(travel, cont mesh.Dir) {
	last := &c.Groups[c.Used-1]
	last.Local = true
	g := GroupForStep(travel, cont, false)
	last.Straight, last.Left, last.Right = g.Straight, g.Left, g.Right
}

func refBuildControl(m *mesh.Mesh, src, dst mesh.NodeID) (refControl, mesh.Dir) {
	total := m.HopDistance(src, dst)
	n, truncated := total, false
	if n > MaxGroups {
		n, truncated = MaxGroups, true
	}
	var c refControl
	launch := m.RouteDir(src, dst, 0)
	for i := 1; i <= n; i++ {
		travel := m.RouteDir(src, dst, i-1)
		out := mesh.Local
		if i < n {
			out = m.RouteDir(src, dst, i)
		}
		c.Groups[i-1] = GroupForStep(travel, out, false)
		c.Used = i
	}
	if truncated {
		c.truncate(m.RouteDir(src, dst, n-1), m.RouteDir(src, dst, MaxGroups))
	}
	return c, launch
}

type refMessage struct {
	Launch   mesh.Dir
	Control  refControl
	Delivers []mesh.NodeID
}

func refBuildBroadcast(m *mesh.Mesh, src mesh.NodeID, maxHops int) []refMessage {
	cs := m.Coord(src)
	top := m.Height() - 1
	var msgs []refMessage
	for x := 0; x < m.Width(); x++ {
		if cs.Y < top {
			yFirst := cs.Y
			if x == cs.X {
				yFirst = cs.Y + 1
			}
			msgs = refAddSweep(msgs, m, src, x, mesh.North, yFirst, top)
		}
		yFirst := cs.Y - 1
		if cs.Y == top && x != cs.X {
			yFirst = cs.Y
		}
		msgs = refAddSweep(msgs, m, src, x, mesh.South, yFirst, 0)
	}
	for i := range msgs {
		msgs[i].Control.MarkInterims(maxHops)
	}
	return msgs
}

// refAddSweep appends the sweep from src serving rows yFirst..yLast of
// column x, walking its route router by router.
func refAddSweep(msgs []refMessage, m *mesh.Mesh, src mesh.NodeID, x int, vert mesh.Dir, yFirst, yLast int) []refMessage {
	cs := m.Coord(src)
	step := 1
	if vert == mesh.South {
		step = -1
	}
	if (yLast-yFirst)*step < 0 {
		return msgs
	}
	h := mesh.East
	if x < cs.X {
		h = mesh.West
	}
	var dirs []mesh.Dir
	for i := 0; i < max(x-cs.X, cs.X-x); i++ {
		dirs = append(dirs, h)
	}
	for i := 0; i < max(yLast-cs.Y, cs.Y-yLast); i++ {
		dirs = append(dirs, vert)
	}
	if len(dirs) == 0 {
		return msgs
	}
	var contDir mesh.Dir
	truncated := false
	if len(dirs) > MaxGroups {
		contDir = dirs[MaxGroups]
		dirs = dirs[:MaxGroups]
		truncated = true
	}
	msg := refMessage{Launch: dirs[0]}
	for y := yFirst; ; y += step {
		msg.Delivers = append(msg.Delivers, m.ID(mesh.Coord{X: x, Y: y}))
		if y == yLast {
			break
		}
	}
	cur := src
	for i := 0; i < len(dirs); i++ {
		next, ok := m.Neighbor(cur, dirs[i])
		if !ok {
			panic(fmt.Sprintf("reference sweep walks off mesh at %d going %s", cur, dirs[i]))
		}
		cur = next
		out := mesh.Local
		if i+1 < len(dirs) {
			out = dirs[i+1]
		}
		c := m.Coord(cur)
		deliver := c.X == x && (c.Y-yFirst)*step >= 0 && (yLast-c.Y)*step >= 0
		msg.Control.Groups[i] = GroupForStep(dirs[i], out, deliver)
		msg.Control.Used = i + 1
	}
	if truncated {
		msg.Control.truncate(dirs[len(dirs)-1], contDir)
	}
	return append(msgs, msg)
}

// checkControl compares a packed control against the reference: the
// launch, every group, then Used, NextStop and the segment before and
// after every Shift until the control drains.
func checkControl(got Control, gotLaunch mesh.Dir, want refControl, wantLaunch mesh.Dir) error {
	if gotLaunch != wantLaunch {
		return fmt.Errorf("launch %s, reference %s", gotLaunch, wantLaunch)
	}
	for i := 0; i < MaxGroups; i++ {
		if g := got.Group(i); g != want.Groups[i] {
			return fmt.Errorf("group %d is %s, reference %s (%s)", i, g, want.Groups[i], got.String())
		}
	}
	for shifts := 0; ; shifts++ {
		if got.Used() != want.Used || got.NextStop() != want.NextStop() {
			return fmt.Errorf("after %d shifts: Used %d NextStop %d, reference %d %d",
				shifts, got.Used(), got.NextStop(), want.Used, want.NextStop())
		}
		links, taps := got.Segment()
		if wl, wt := want.segment(); links != wl || taps != wt {
			return fmt.Errorf("after %d shifts: segment %d links %d taps, reference %d %d", shifts, links, taps, wl, wt)
		}
		if want.Used == 0 {
			return nil
		}
		if g, w := got.Shift(), want.Shift(); g != w {
			return fmt.Errorf("shift %d consumed %s, reference %s", shifts+1, g, w)
		}
	}
}

type refKey struct {
	c      Control
	launch mesh.Dir
}

type refEntry struct {
	c      refControl
	launch mesh.Dir
}

// refSeen memoises checkControl: equal packed controls behave identically,
// so a control seen before needs only to come with the same reference.
type refSeen map[refKey]refEntry

// check compares got with want, and the pair marked at each of maxHops.
func (seen refSeen) check(got Control, gotLaunch mesh.Dir, want refControl, wantLaunch mesh.Dir, maxHops []int) error {
	k := refKey{got, gotLaunch}
	if prev, ok := seen[k]; ok {
		if prev != (refEntry{want, wantLaunch}) {
			return fmt.Errorf("control %s matches one checked against %v, but the reference is %v", got.String(), prev.c, want)
		}
		return nil
	}
	seen[k] = refEntry{want, wantLaunch}
	if err := checkControl(got, gotLaunch, want, wantLaunch); err != nil {
		return err
	}
	for _, h := range maxHops {
		g, w := got, want
		g.MarkInterims(h)
		w.MarkInterims(h)
		if err := checkControl(g, gotLaunch, w, wantLaunch); err != nil {
			return fmt.Errorf("MaxHops %d: %w", h, err)
		}
	}
	return nil
}

var (
	refMeshes  = [][2]int{{1, 5}, {5, 1}, {3, 7}, {8, 8}, {16, 9}, {32, 32}, {64, 64}}
	refMaxHops = []int{1, 4, 5, 8}
)

// refMeshesToRun returns the reference meshes; -short drops those above
// 256 nodes.
func refMeshesToRun() []*mesh.Mesh {
	var ms []*mesh.Mesh
	for _, d := range refMeshes {
		if !testing.Short() || d[0]*d[1] <= 256 {
			ms = append(ms, mesh.New(d[0], d[1]))
		}
	}
	return ms
}

func TestBuildControlMatchesReference(t *testing.T) {
	for _, m := range refMeshesToRun() {
		seen := refSeen{}
		for src := mesh.NodeID(0); int(src) < m.Nodes(); src++ {
			for dst := mesh.NodeID(0); int(dst) < m.Nodes(); dst++ {
				if src == dst {
					continue
				}
				got, gotLaunch := BuildControl(m, src, dst)
				want, wantLaunch := refBuildControl(m, src, dst)
				if err := seen.check(got, gotLaunch, want, wantLaunch, refMaxHops); err != nil {
					t.Fatalf("%dx%d %d->%d: %v", m.Width(), m.Height(), src, dst, err)
				}
			}
		}
	}
}

func TestBuildBroadcastMatchesReference(t *testing.T) {
	for _, m := range refMeshesToRun() {
		seen := refSeen{}
		for src := mesh.NodeID(0); int(src) < m.Nodes(); src++ {
			for _, h := range refMaxHops {
				got, want := BuildBroadcast(m, src, h), refBuildBroadcast(m, src, h)
				if len(got) != len(want) {
					t.Fatalf("%dx%d src %d MaxHops %d: %d sweeps, reference %d", m.Width(), m.Height(), src, h, len(got), len(want))
				}
				for i := range got {
					if err := seen.check(got[i].Control, got[i].Launch, want[i].Control, want[i].Launch, nil); err != nil {
						t.Fatalf("%dx%d src %d MaxHops %d sweep %d: %v", m.Width(), m.Height(), src, h, i, err)
					}
					if !slices.Equal(got[i].Delivers, want[i].Delivers) {
						t.Fatalf("%dx%d src %d sweep %d delivers %v, reference %v", m.Width(), m.Height(), src, i, got[i].Delivers, want[i].Delivers)
					}
				}
			}
		}
	}
}
