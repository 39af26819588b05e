package packet

// The formats and encoders the packed ones replaced, kept as references:
// refGroup is the decoded group (one bool a bit) with its methods;
// refControl is the unpacked control (fourteen groups and an explicit
// count), and refBuildControl and refBuildBroadcast build it one router at
// a time; refToggle and refMarkInterims are the packed word operations
// the group tables replaced. The tests below compare Group against
// refGroup on every byte value, the packed encoders against the
// references on every route of a set of meshes, and the table-driven
// toggle and MarkInterims against theirs on every input they take.

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"phastlane/internal/mesh"
)

// refGroup is the decoded group: bit 0 of the wire byte is Straight ...
// bit 4 Multicast.
type refGroup struct {
	Straight  bool
	Left      bool
	Right     bool
	Local     bool
	Multicast bool
}

// refUnpack decodes the low five bits of a wire byte.
func refUnpack(b uint8) refGroup {
	return refGroup{
		Straight:  b&1 != 0,
		Left:      b&2 != 0,
		Right:     b&4 != 0,
		Local:     b&8 != 0,
		Multicast: b&16 != 0,
	}
}

// pack encodes the group into its wire byte.
func (g refGroup) pack() uint8 {
	var b uint8
	for i, set := range []bool{g.Straight, g.Left, g.Right, g.Local, g.Multicast} {
		if set {
			b |= 1 << i
		}
	}
	return b
}

func (g refGroup) Zero() bool {
	return !g.Straight && !g.Left && !g.Right && !g.Local && !g.Multicast
}

func (g refGroup) Transit() bool { return g.Straight || g.Left || g.Right }

func (g refGroup) Valid() bool {
	dirs := 0
	if g.Straight {
		dirs++
	}
	if g.Left {
		dirs++
	}
	if g.Right {
		dirs++
	}
	return dirs <= 1
}

func (g refGroup) Interim() bool { return g.Local && g.Transit() }

func (g refGroup) Turn() mesh.Turn {
	switch {
	case g.Straight:
		return mesh.Straight
	case g.Left:
		return mesh.LeftTurn
	case g.Right:
		return mesh.RightTurn
	case g.Local:
		return mesh.Eject
	default:
		panic("reference Turn on empty control group")
	}
}

func (g refGroup) String() string {
	var parts []string
	if g.Straight {
		parts = append(parts, "S")
	}
	if g.Left {
		parts = append(parts, "L")
	}
	if g.Right {
		parts = append(parts, "R")
	}
	if g.Local {
		parts = append(parts, "Loc")
	}
	if g.Multicast {
		parts = append(parts, "M")
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, "+")
}

func refDirAfterTurn(travel mesh.Dir, g refGroup) mesh.Dir { return travel.Turned(g.Turn()) }

// panics reports whether f panics.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// checkGroup compares Group(b) with the reference decoding of b, method by
// method; b must fit in five bits.
func checkGroup(b uint8) error {
	g, want := Group(b), refUnpack(b)
	if uint8(g) != want.pack() {
		return fmt.Errorf("group %#x packs to %#x in the reference", b, want.pack())
	}
	if g.Zero() != want.Zero() || g.Transit() != want.Transit() || g.Valid() != want.Valid() || g.Interim() != want.Interim() {
		return fmt.Errorf("group %#x: Zero/Transit/Valid/Interim %v %v %v %v, reference %v %v %v %v", b,
			g.Zero(), g.Transit(), g.Valid(), g.Interim(), want.Zero(), want.Transit(), want.Valid(), want.Interim())
	}
	if g.String() != want.String() {
		return fmt.Errorf("group %#x renders %q, reference %q", b, g.String(), want.String())
	}
	var turn, wantTurn mesh.Turn
	if p, wp := panics(func() { turn = g.Turn() }), panics(func() { wantTurn = want.Turn() }); p != wp || turn != wantTurn {
		return fmt.Errorf("group %#x: Turn %s (panics %v), reference %s (panics %v)", b, turn, p, wantTurn, wp)
	}
	for travel := mesh.North; travel < mesh.Local; travel++ {
		var out, wantOut mesh.Dir
		p := panics(func() { out = DirAfterTurn(travel, g) })
		wp := panics(func() { wantOut = refDirAfterTurn(travel, want) })
		if p != wp || out != wantOut {
			return fmt.Errorf("group %#x travelling %s: DirAfterTurn %s (panics %v), reference %s (panics %v)", b, travel, out, p, wantOut, wp)
		}
	}
	return nil
}

func TestGroupMatchesReference(t *testing.T) {
	for b := 0; b <= groupMask; b++ {
		if err := checkGroup(uint8(b)); err != nil {
			t.Error(err)
		}
	}
}

// FuzzGroupPackRoundTrip pins the 5-bit wire encoding against the
// reference: any byte's low five bits behave as the reference decodes
// them, and String does not panic even with higher bits set.
func FuzzGroupPackRoundTrip(f *testing.F) {
	for b := 0; b < 32; b += 7 {
		f.Add(uint8(b))
	}
	f.Add(uint8(0x1f))
	f.Add(uint8(0xff))
	f.Fuzz(func(t *testing.T, b uint8) {
		if err := checkGroup(b & groupMask); err != nil {
			t.Error(err)
		}
		if got := Group(refUnpack(b).pack()); got != Group(b&groupMask) {
			t.Errorf("reference round trip of %#x gives %s", b, got)
		}
		_ = Group(b).String()
	})
}

// TestControlGroupsAreWireBytes checks that every accessor hands out the
// wire byte: Head and Shift return C0's low five bits, and each of the
// fourteen positions reads back what SetGroup wrote without touching its
// neighbours.
func TestControlGroupsAreWireBytes(t *testing.T) {
	for b := 0; b <= groupMask; b++ {
		g := Group(b)
		for i := 0; i < MaxGroups; i++ {
			c := Control{C0: 0x15 * wordOnes, C1: 0x0a * wordOnes}
			c.SetGroup(i, g)
			for j := 0; j < MaxGroups; j++ {
				want := Group(0x15)
				if j >= groupsPerWord {
					want = 0x0a
				}
				if j == i {
					want = g
				}
				if got := c.Group(j); got != want {
					t.Fatalf("SetGroup(%d, %s): group %d is %s, want %s", i, g, j, got, want)
				}
			}
			head := Group(c.C0 & 0x1f)
			if got := c.Head(); got != head {
				t.Fatalf("Head of %#x is %s, want %s", c.C0, got, head)
			}
			if got := c.Shift(); got != head {
				t.Fatalf("Shift returned %s, want %s", got, head)
			}
		}
	}
}

// refControl is the unpacked control format: Groups[0] is the group the
// next router consumes, Used the number of meaningful groups.
type refControl struct {
	Groups [MaxGroups]Group
	Used   int
}

func (c *refControl) Shift() Group {
	head := c.Groups[0]
	copy(c.Groups[:], c.Groups[1:])
	c.Groups[MaxGroups-1] = 0
	if c.Used > 0 {
		c.Used--
	}
	return head
}

func (c *refControl) MarkInterims(maxHops int) {
	for i := maxHops - 1; i < c.Used-1; i += maxHops {
		c.Groups[i] |= Local
	}
}

func (c *refControl) NextStop() int {
	for i := 0; i < c.Used; i++ {
		if c.Groups[i]&Local != 0 {
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
		if c.Groups[i]&Multicast != 0 {
			taps++
		}
	}
	return links, taps
}

// truncate turns the last group of a route cut at MaxGroups into an
// interim stop that relaunches toward cont.
func (c *refControl) truncate(travel, cont mesh.Dir) {
	last := &c.Groups[c.Used-1]
	*last = *last&Multicast | Local | GroupForStep(travel, cont, false)
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

// refOnesBelow returns the lowest bit of each of a word's first k groups,
// k clamped to the word: the shift-and-mask form groupOnes replaced.
func refOnesBelow(k int) uint64 {
	k = min(max(k, 0), groupsPerWord)
	return wordOnes & (uint64(1)<<(k*GroupBits) - 1)
}

// refToggle flips the bits of g in every group of [lo, hi), one word at a
// time.
func refToggle(c *Control, lo, hi int, g Group) {
	c.C0 ^= uint64(g) * (refOnesBelow(hi) &^ refOnesBelow(lo))
	c.C1 ^= uint64(g) * (refOnesBelow(hi-groupsPerWord) &^ refOnesBelow(lo-groupsPerWord))
}

// refMarkInterims sets Local on every maxHops-th group before the last
// used one, one group at a time.
func refMarkInterims(c *Control, maxHops int) {
	for i, last := maxHops-1, c.Used()-1; i < last; i += maxHops {
		w, shift := c.word(i)
		*w |= uint64(Local) << shift
	}
}

// TestToggleMatchesReference compares toggle with refToggle on every
// bound pair in [-1, MaxGroups+2], reversed and empty ranges included, for
// each of the 32 group values and two starting controls. EncodeRoute
// passes a tapFrom past MaxGroups for unicast routes, and the tables must
// clamp it as the shifts did.
func TestToggleMatchesReference(t *testing.T) {
	starts := []Control{{}, {C0: 0x5_a5a5_a5a5, C1: 0x1_2345_6789}}
	for _, start := range starts {
		for lo := -1; lo <= MaxGroups+2; lo++ {
			for hi := -1; hi <= MaxGroups+2; hi++ {
				for g := Group(0); g < 1<<GroupBits; g++ {
					got, want := start, start
					got.toggle(lo, hi, g)
					refToggle(&want, lo, hi, g)
					if got != want {
						t.Fatalf("toggle(%d, %d, %s) on %#x/%#x: %#x/%#x, reference %#x/%#x",
							lo, hi, g, start.C0, start.C1, got.C0, got.C1, want.C0, want.C1)
					}
				}
			}
		}
	}
}

// TestMarkInterimsMatchesReference compares MarkInterims with
// refMarkInterims for maxHops from 1 to MaxGroups+1 on every control
// EncodeRoute builds: each leg pair (a, b) up to two links past the
// truncation, the second leg straight on or turning either way, and each
// tapFrom from 0 to MaxGroups.
func TestMarkInterimsMatchesReference(t *testing.T) {
	for first := mesh.North; first < mesh.NumLinkDirs; first++ {
		for _, second := range []mesh.Dir{first, first.Turned(mesh.LeftTurn), first.Turned(mesh.RightTurn)} {
			for a := 0; a <= MaxGroups+2; a++ {
				for b := 0; b <= MaxGroups+2; b++ {
					if a+b == 0 {
						continue
					}
					for tapFrom := 0; tapFrom <= MaxGroups; tapFrom++ {
						c, _ := EncodeRoute(first, a, second, b, tapFrom)
						for h := 1; h <= MaxGroups+1; h++ {
							got, want := c, c
							got.MarkInterims(h)
							refMarkInterims(&want, h)
							if got != want {
								t.Fatalf("%s%d %s%d tapFrom %d: MarkInterims(%d) of %s gives %s, reference %s",
									first, a, second, b, tapFrom, h, c.String(), got.String(), want.String())
							}
						}
					}
				}
			}
		}
	}
}
