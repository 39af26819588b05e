package packet

import (
	"testing"

	"phastlane/internal/mesh"
)

// walkControl drives a control hop by hop from src, asserting each group
// is consistent with the travel direction, and returns the stop node and
// whether the walk ended at a truncation interim.
func walkControl(t *testing.T, m *mesh.Mesh, src mesh.NodeID, c Control, launch mesh.Dir) mesh.NodeID {
	t.Helper()
	if err := c.Validate(); err != nil {
		t.Fatalf("control invalid: %v", err)
	}
	at, travel := src, launch
	for {
		next, ok := m.Neighbor(at, travel)
		if !ok {
			t.Fatalf("control walks off mesh at %d going %s", at, travel)
		}
		at = next
		g := c.Shift()
		if g.Zero() {
			t.Fatalf("control ran out of groups at %d", at)
		}
		if g.Local {
			// Final stop or interim/truncation stop: the walk ends
			// here (an interim would buffer and relaunch).
			return at
		}
		travel = DirAfterTurn(travel, g)
	}
}

func TestControlFromDirsMatchesBuildControl(t *testing.T) {
	m := mesh.New(8, 8)
	for src := mesh.NodeID(0); src < 64; src += 7 {
		for dst := mesh.NodeID(0); dst < 64; dst += 5 {
			if src == dst {
				continue
			}
			dirs := m.AppendRoute(nil, src, dst)
			gotCtl, gotLaunch := ControlFromDirs(dirs)
			wantCtl, wantLaunch := BuildControl(m, src, dst)
			if gotCtl != wantCtl || gotLaunch != wantLaunch {
				t.Fatalf("%d->%d: ControlFromDirs diverges from BuildControl on the dimension-order route:\n%+v %s\n%+v %s",
					src, dst, gotCtl, gotLaunch, wantCtl, wantLaunch)
			}
		}
	}
}

func TestControlFromDirsDetour(t *testing.T) {
	m := mesh.New(8, 8)
	// A non-dimension-order detour: east, north, east, south ends two
	// columns east of the start.
	src := mesh.NodeID(17)
	dirs := []mesh.Dir{mesh.East, mesh.North, mesh.East, mesh.South}
	ctl, launch := ControlFromDirs(dirs)
	if launch != mesh.East {
		t.Fatalf("launch %s, want E", launch)
	}
	if end := walkControl(t, m, src, ctl, launch); end != 19 {
		t.Fatalf("detour ends at %d, want 19", end)
	}
}

func TestControlFromDirsTruncates(t *testing.T) {
	m := mesh.New(16, 16)
	// A 20-link snake: longer than MaxGroups, so the control must stop
	// at a truncation interim after MaxGroups links with the
	// continuation turn encoded.
	var dirs []mesh.Dir
	for i := 0; i < 10; i++ {
		dirs = append(dirs, mesh.East)
	}
	for i := 0; i < 10; i++ {
		dirs = append(dirs, mesh.North)
	}
	ctl, launch := ControlFromDirs(dirs)
	if ctl.Used() != MaxGroups {
		t.Fatalf("Used %d, want %d", ctl.Used(), MaxGroups)
	}
	last := ctl.Group(MaxGroups - 1)
	if !last.Local || !last.Transit() {
		t.Fatalf("truncation group %+v is not an interim stop", last)
	}
	if end := walkControl(t, m, 0, ctl, launch); end != mesh.NodeID(4*16+10) {
		// 10 east + 4 north = MaxGroups(14) links from node 0.
		t.Fatalf("truncated walk ends at %d, want %d", end, 4*16+10)
	}
}

func TestControlFromDirsPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on empty route")
		}
	}()
	ControlFromDirs(nil)
}
