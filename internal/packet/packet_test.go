package packet

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"phastlane/internal/mesh"
)

// TestGroupPackRoundTrip checks that a group's wire byte and the decoded
// reference hold the same five bits: each converts to the other unchanged.
func TestGroupPackRoundTrip(t *testing.T) {
	f := func(raw uint8) bool {
		g := Group(raw & 0x1f)
		return refUnpack(uint8(g)).pack() == uint8(g) && Group(refUnpack(raw).pack()) == g
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGroupValid(t *testing.T) {
	cases := []struct {
		g    Group
		want bool
	}{
		{Straight, true},
		{Left, true},
		{Local, true},
		{Local | Straight, true}, // interim
		{Straight | Left, false},
		{Left | Right, false},
		{Group(0), true},
	}
	for _, tc := range cases {
		if got := tc.g.Valid(); got != tc.want {
			t.Errorf("Valid(%s) = %v, want %v", tc.g, got, tc.want)
		}
	}
}

func TestGroupInterim(t *testing.T) {
	if !(Local | Straight).Interim() {
		t.Error("Local+Straight should be interim")
	}
	if Local.Interim() {
		t.Error("Local alone is a final stop, not interim")
	}
}

func TestControlShift(t *testing.T) {
	var c Control
	c.SetGroup(0, Straight)
	c.SetGroup(1, Right)
	c.SetGroup(2, Local)
	if got := c.Shift(); got&Straight == 0 {
		t.Fatalf("first shift = %s", got)
	}
	if got := c.Head(); got&Right == 0 {
		t.Fatalf("head after shift = %s", got)
	}
	if c.Used() != 2 {
		t.Fatalf("used after shift = %d", c.Used())
	}
	c.Shift()
	c.Shift()
	if c.Used() != 0 || !c.Head().Zero() {
		t.Fatalf("control not empty after consuming all groups: %s", c.String())
	}
	// Shifting an empty control stays empty.
	c.Shift()
	if c.Used() != 0 {
		t.Fatal("shift on empty control changed Used")
	}
}

func TestBuildControlStraightLine(t *testing.T) {
	m := mesh.New(8, 8)
	src, dst := m.ID(mesh.Coord{X: 0, Y: 0}), m.ID(mesh.Coord{X: 3, Y: 0})
	c, launch := BuildControl(m, src, dst)
	if launch != mesh.East {
		t.Fatalf("launch = %s, want E", launch)
	}
	if c.Used() != 3 {
		t.Fatalf("used = %d, want 3", c.Used())
	}
	if c.Group(0)&Straight == 0 || c.Group(1)&Straight == 0 {
		t.Errorf("transit groups not straight: %s", c.String())
	}
	if c.Group(2)&Local == 0 || c.Group(2).Transit() {
		t.Errorf("final group should be pure Local: %s", c.String())
	}
	if err := c.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestBuildControlWithTurn(t *testing.T) {
	m := mesh.New(8, 8)
	// East then North: the turn router sees travel=E out=N => left turn.
	src, dst := m.ID(mesh.Coord{X: 0, Y: 0}), m.ID(mesh.Coord{X: 2, Y: 2})
	c, launch := BuildControl(m, src, dst)
	if launch != mesh.East {
		t.Fatalf("launch = %s", launch)
	}
	// Groups: router(1,0): straight E; router(2,0): turn to N = left;
	// router(2,1): straight N; router(2,2): local.
	want := []Group{Straight, Left, Straight, Local}
	if c.Used() != len(want) {
		t.Fatalf("used = %d, want %d (%s)", c.Used(), len(want), c.String())
	}
	for i, g := range want {
		if c.Group(i) != g {
			t.Errorf("group %d = %s, want %s", i, c.Group(i), g)
		}
	}
}

func TestBuildControlPanicsOnSelf(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("BuildControl(src == dst) did not panic")
		}
	}()
	BuildControl(mesh.New(4, 4), 3, 3)
}

// Property: walking the control groups from any src reaches dst with the
// remaining control exactly describing the remaining route after each
// shift/translate, and the walk length equals the hop distance.
func TestControlWalkReachesDestination(t *testing.T) {
	m := mesh.New(8, 8)
	f := func(srcRaw, dstRaw uint8) bool {
		src := mesh.NodeID(int(srcRaw) % m.Nodes())
		dst := mesh.NodeID(int(dstRaw) % m.Nodes())
		if src == dst {
			return true
		}
		c, launch := BuildControl(m, src, dst)
		if c.Validate() != nil {
			return false
		}
		cur, ok := m.Neighbor(src, launch)
		if !ok {
			return false
		}
		travel := launch
		hops := 1
		for {
			g := c.Shift()
			if g.Zero() {
				return false
			}
			if g&Local != 0 {
				return cur == dst && hops == m.HopDistance(src, dst) && c.Used() == 0
			}
			travel = DirAfterTurn(travel, g)
			cur, ok = m.Neighbor(cur, travel)
			if !ok {
				return false
			}
			hops++
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestMarkInterims(t *testing.T) {
	m := mesh.New(8, 8)
	// 0 -> 63 is 14 links; with maxHops=4 interim Locals land on groups
	// 3, 7, 11 (0-based), final group 13 already Local.
	c, _ := BuildControl(m, 0, 63)
	c.MarkInterims(4)
	for i := 0; i < c.Used(); i++ {
		wantLocal := i == 3 || i == 7 || i == 11 || i == c.Used()-1
		if got := c.Group(i)&Local != 0; got != wantLocal {
			t.Errorf("group %d Local = %v, want %v", i, got, wantLocal)
		}
		if wantLocal && i != c.Used()-1 && !c.Group(i).Interim() {
			t.Errorf("group %d should be interim (keep direction)", i)
		}
	}
	if got := c.NextStop(); got != 4 {
		t.Errorf("NextStop = %d, want 4", got)
	}
}

func TestMarkInterimsShortRouteUntouched(t *testing.T) {
	m := mesh.New(8, 8)
	c, _ := BuildControl(m, 0, 3)
	before := c
	c.MarkInterims(4)
	if c != before {
		t.Errorf("3-hop route should not gain interims at maxHops=4")
	}
}

func TestNextStopNoInterim(t *testing.T) {
	m := mesh.New(8, 8)
	c, _ := BuildControl(m, 0, 2)
	if got := c.NextStop(); got != 2 {
		t.Errorf("NextStop = %d, want 2", got)
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	var c Control
	c.SetGroup(0, Straight)
	if err := c.Validate(); err == nil {
		t.Error("control not ending in Local should fail validation")
	}
	c.SetGroup(0, Local)
	c.SetGroup(5, Straight) // past the eject: groups 2-5 empty
	if err := c.Validate(); err == nil {
		t.Error("set group beyond the final eject should fail validation")
	}
	c.SetGroup(5, Group(0))
	c.SetGroup(0, Straight|Right|Local)
	if err := c.Validate(); err == nil {
		t.Error("two direction bits should fail validation")
	}
	// Each word carries seven groups; a bit above them is not on the wire.
	for _, bad := range []Control{{C0: uint64(Local) | 1<<wordBits}, {C0: uint64(Local), C1: 1 << 63}} {
		if err := bad.Validate(); err == nil {
			t.Errorf("control %#x/%#x with bits above group 7 should fail validation", bad.C0, bad.C1)
		}
	}
}

// TestControlSize pins the packed format: two 64-bit control words.
func TestControlSize(t *testing.T) {
	if got := unsafe.Sizeof(Control{}); got != 16 {
		t.Errorf("Control is %d bytes, want 16", got)
	}
}

func TestGroupForStepPanicsOnReversal(t *testing.T) {
	for d := mesh.North; d < mesh.Local; d++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("GroupForStep(%s, %s) encoded a reversal", d, d.Opposite())
				}
			}()
			GroupForStep(d, d.Opposite(), false)
		}()
	}
}

func TestDirAfterTurn(t *testing.T) {
	cases := []struct {
		travel mesh.Dir
		g      Group
		want   mesh.Dir
	}{
		{mesh.North, Straight, mesh.North},
		{mesh.North, Left, mesh.West},
		{mesh.North, Right, mesh.East},
		{mesh.South, Left, mesh.East},
		{mesh.West, Right, mesh.North},
		{mesh.East, Local, mesh.Local},
	}
	for _, tc := range cases {
		if got := DirAfterTurn(tc.travel, tc.g); got != tc.want {
			t.Errorf("DirAfterTurn(%s,%s) = %s, want %s", tc.travel, tc.g, got, tc.want)
		}
	}
}

func TestBuildBroadcastCoverage(t *testing.T) {
	m := mesh.New(8, 8)
	for _, src := range []mesh.NodeID{0, 7, 27, 56, 63, 35} {
		msgs := BuildBroadcast(m, src, 4)
		served := make(map[mesh.NodeID]int)
		for _, msg := range msgs {
			for _, d := range msg.Delivers {
				served[d]++
			}
		}
		if len(served) != m.Nodes()-1 {
			t.Fatalf("src %d: broadcast covers %d nodes, want %d", src, len(served), m.Nodes()-1)
		}
		for n, cnt := range served {
			if cnt != 1 {
				t.Errorf("src %d: node %d served %d times", src, n, cnt)
			}
		}
		if served[src] != 0 {
			t.Errorf("src %d delivered to itself", src)
		}
	}
}

func TestBuildBroadcastMessageCount(t *testing.T) {
	m := mesh.New(8, 8)
	// Interior row: up to 16 messages.
	if got := len(BuildBroadcast(m, 27, 4)); got != 16 {
		t.Errorf("interior broadcast: %d messages, want 16", got)
	}
	// Bottom row: only upward sweeps => 8.
	if got := len(BuildBroadcast(m, 3, 4)); got != 8 {
		t.Errorf("bottom-row broadcast: %d messages, want 8", got)
	}
	// Top row: only downward sweeps (row nodes folded into them) => 8.
	if got := len(BuildBroadcast(m, 59, 4)); got != 8 {
		t.Errorf("top-row broadcast: %d messages, want 8", got)
	}
}

// Property: every broadcast message's control validates and its walk visits
// exactly the delivery nodes with multicast taps.
func TestBroadcastWalk(t *testing.T) {
	m := mesh.New(8, 8)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		src := mesh.NodeID(rng.Intn(m.Nodes()))
		for _, msg := range BuildBroadcast(m, src, 5) {
			if err := msg.Control.Validate(); err != nil {
				t.Fatalf("src %d: %v (control %s)", src, err, msg.Control.String())
			}
			// Walk and record multicast-tap nodes.
			c := msg.Control
			cur, ok := m.Neighbor(src, msg.Launch)
			if !ok {
				t.Fatalf("src %d: bad launch %s", src, msg.Launch)
			}
			travel := msg.Launch
			var tapped []mesh.NodeID
			for {
				g := c.Shift()
				if g&Multicast != 0 {
					tapped = append(tapped, cur)
				}
				if g&Local != 0 && !g.Transit() {
					break
				}
				travel = DirAfterTurn(travel, g)
				next, ok := m.Neighbor(cur, travel)
				if !ok {
					t.Fatalf("src %d: walk off mesh at %d", src, cur)
				}
				cur = next
			}
			if len(tapped) != len(msg.Delivers) {
				t.Fatalf("src %d: tapped %v, declared %v", src, tapped, msg.Delivers)
			}
			for i := range tapped {
				if tapped[i] != msg.Delivers[i] {
					t.Fatalf("src %d: tapped %v, declared %v", src, tapped, msg.Delivers)
				}
			}
		}
	}
}

func TestOpString(t *testing.T) {
	for op := Op(0); op < NumOps; op++ {
		if op.String() == "" {
			t.Errorf("Op(%d) has empty name", op)
		}
	}
}

func TestControlString(t *testing.T) {
	m := mesh.New(8, 8)
	c, _ := BuildControl(m, 0, 2)
	if got := c.String(); got != "[S Loc]" {
		t.Errorf("String = %q", got)
	}
}

func TestBuildControlTruncatesLongRoutes(t *testing.T) {
	m := mesh.New(16, 16)
	src, dst := m.ID(mesh.Coord{X: 0, Y: 0}), m.ID(mesh.Coord{X: 15, Y: 15})
	c, launch := BuildControl(m, src, dst)
	if launch != mesh.East {
		t.Fatalf("launch = %s", launch)
	}
	if c.Used() != MaxGroups {
		t.Fatalf("used = %d, want %d", c.Used(), MaxGroups)
	}
	last := c.Group(c.Used() - 1)
	if !last.Interim() {
		t.Fatalf("truncated route must end in an interim group, got %s", last)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildBroadcastLargeMesh(t *testing.T) {
	m := mesh.New(16, 16)
	for _, src := range []mesh.NodeID{0, 255, 100} {
		served := map[mesh.NodeID]int{}
		for _, msg := range BuildBroadcast(m, src, 4) {
			if err := msg.Control.Validate(); err != nil {
				t.Fatalf("src %d: %v", src, err)
			}
			for _, d := range msg.Delivers {
				served[d]++
			}
		}
		if len(served) != m.Nodes()-1 {
			t.Fatalf("src %d: covers %d nodes, want %d", src, len(served), m.Nodes()-1)
		}
		for n, c := range served {
			if c != 1 {
				t.Fatalf("src %d: node %d served %d times", src, n, c)
			}
		}
	}
}
