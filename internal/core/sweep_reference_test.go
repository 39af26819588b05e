package core

import (
	"fmt"
	"slices"
	"testing"

	"phastlane/internal/mesh"
	"phastlane/internal/packet"
)

// refBuildSweepFrom is the group-by-group sweep rebuild that buildSweepFrom
// replaced, kept as its reference. It appends the route's links, which
// buildSweepFrom leaves in sweepDirs, to buf and returns them too.
func refBuildSweepFrom(n *Network, src mesh.NodeID, remaining []mesh.NodeID, maxHops int, buf []mesh.Dir) (packet.Control, mesh.Dir, []mesh.Dir) {
	m := n.m
	dirs := n.top.AppendRoute(buf, src, remaining[0])
	cur := remaining[0]
	for _, next := range remaining[1:] {
		if n.top.HopDistance(cur, next) != 1 {
			panic(fmt.Sprintf("reference: non-contiguous multicast remainder %d->%d", cur, next))
		}
		dirs = append(dirs, n.top.PortAt(cur, next, 0))
		cur = next
	}
	route := dirs
	var contDir mesh.Dir
	truncated := false
	if len(dirs) > packet.MaxGroups {
		contDir = dirs[packet.MaxGroups]
		dirs = dirs[:packet.MaxGroups]
		truncated = true
	}
	var ctl packet.Control
	at := src
	for i, d := range dirs {
		next, ok := m.Neighbor(at, d)
		if !ok {
			panic("reference: multicast resegment walks off mesh")
		}
		at = next
		deliver := slices.Contains(remaining, at)
		out := mesh.Local
		if i+1 < len(dirs) {
			out = dirs[i+1]
		}
		ctl.SetGroup(i, packet.GroupForStep(d, out, deliver))
	}
	if truncated {
		last := len(dirs) - 1
		g := packet.GroupForStep(dirs[last], contDir, false)
		g.Local, g.Multicast = true, ctl.Group(last).Multicast
		ctl.SetGroup(last, g)
	}
	ctl.MarkInterims(maxHops)
	return ctl, dirs[0], route
}

// TestBuildSweepFromMatchesReference rebuilds every broadcast sweep of
// square meshes of side 2 to 32 from every owner a parcel can have along
// it: the source, and each router it passes, with the deliveries not yet
// tapped there. The closed-form rebuild must match the reference group for
// group, leave the same route in sweepDirs, and, from the source, equal
// the cached sweep. MaxHops cycles through 1, 4, 5 and 8 with the side.
// -short stops at side 16.
func TestBuildSweepFromMatchesReference(t *testing.T) {
	maxSide := 32
	if testing.Short() {
		maxSide = 16
	}
	for side := 2; side <= maxSide; side++ {
		maxHops := []int{1, 4, 5, 8}[side%4]
		n := mustNew(t, func(c *Config) { c.Width, c.Height, c.MaxHops = side, side, maxHops })
		var buf []mesh.Dir
		check := func(src, owner mesh.NodeID, remaining []mesh.NodeID) {
			got, gotLaunch := n.buildSweepFrom(owner, remaining, maxHops)
			want, wantLaunch, wantDirs := refBuildSweepFrom(n, owner, remaining, maxHops, buf[:0])
			buf = wantDirs
			if got != want || gotLaunch != wantLaunch || !slices.Equal(n.sweepDirs, wantDirs) {
				t.Fatalf("side %d: sweep of %d rebuilt at %d toward %v: %s launch %s, reference %s launch %s (route %v, reference %v)",
					side, src, owner, remaining, got.String(), gotLaunch, want.String(), wantLaunch, n.sweepDirs, wantDirs)
			}
		}
		for src := mesh.NodeID(0); int(src) < n.Nodes(); src++ {
			for _, sweep := range packet.BuildBroadcast(n.m, src, maxHops) {
				check(src, src, sweep.Delivers)
				if ctl, launch := n.buildSweepFrom(src, sweep.Delivers, maxHops); ctl != sweep.Control || launch != sweep.Launch {
					t.Fatalf("side %d: sweep of %d rebuilt at the source is %s, cached %s", side, src, ctl.String(), sweep.Control.String())
				}
				at, remaining := src, sweep.Delivers
				for _, d := range n.m.AppendRoute(nil, src, remaining[0]) {
					at, _ = n.m.Neighbor(at, d)
					if at != remaining[0] {
						check(src, at, remaining)
					}
				}
				for len(remaining) > 1 {
					at, remaining = remaining[0], remaining[1:]
					check(src, at, remaining)
				}
			}
		}
	}
}

// TestBuildSweepFromPanicsOnBadRemainder pins buildSweepFrom's two
// assertions: the remainder is contiguous, and it continues the approach's
// vertical direction instead of doubling back.
func TestBuildSweepFromPanicsOnBadRemainder(t *testing.T) {
	n := mustNew(t, nil)
	id := func(x, y int) mesh.NodeID { return n.m.ID(mesh.Coord{X: x, Y: y}) }
	for name, remaining := range map[string][]mesh.NodeID{
		"gap":      {id(1, 2), id(1, 4)},
		"reversal": {id(1, 2), id(1, 1)},
		"zigzag":   {id(1, 0), id(1, 1), id(1, 0)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: buildSweepFrom(0, %v) did not panic", name, remaining)
				}
			}()
			n.buildSweepFrom(id(0, 0), remaining, n.cfg.MaxHops)
		}()
	}
}
