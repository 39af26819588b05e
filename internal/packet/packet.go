// Package packet defines the Phastlane single-flit packet: a full cache
// line of payload plus the predecoded source-routing control bits that the
// optical router consumes directly, with no electrical setup network.
//
// Physically (paper Section 2.1, Figure 3) a packet occupies ten payload
// waveguides (D0-D9, 64-way WDM) and two control waveguides (C0 and C1,
// 35-way WDM). The 70 control bits form up to 14 groups of five bits -
// Straight, Left, Right, Local, Multicast - one group per router the packet
// may traverse after leaving its source. Each router consumes Group 1 from
// C0, frequency-translates C0's Groups 2-7 down one position onto the output
// C1 waveguide, and physically shifts the old C1 into the C0 position, so
// the next router again finds its own bits in Group 1 of C0.
package packet

import (
	"fmt"
	"math/bits"
	"strings"

	"phastlane/internal/mesh"
)

// Control-group geometry fixed by the paper's Table 1.
const (
	// GroupBits is the size of one router-control group.
	GroupBits = 5
	// MaxGroups is the number of control groups a packet carries
	// (70 control bits / 5 bits per group).
	MaxGroups = 14
	// ControlWDM is the WDM degree of each of the two control waveguides.
	ControlWDM = 35
	// ControlWaveguides carries the 14 groups (7 groups per waveguide).
	ControlWaveguides = 2
	// PayloadWaveguides carries data+address+misc at PayloadWDM.
	PayloadWaveguides = 10
	// PayloadWDM is the default WDM degree of payload waveguides.
	PayloadWDM = 64
	// SizeBytes is the single-flit packet size: 64B cache line plus
	// address, operation, source ID, and ECC/misc (80 bytes total).
	SizeBytes = 80
	// PayloadBits is the total optical payload width.
	PayloadBits = SizeBytes * 8
)

// Op is the message operation type carried in the packet header. The set
// matches what a snoopy cache-coherent system sends over the network.
type Op uint8

// Operation types.
const (
	OpReadReq   Op = iota // broadcast L2-miss read request
	OpWriteReq            // broadcast write/upgrade request (invalidate)
	OpDataReply           // cache-line data reply from owner or MC
	OpAck                 // invalidation acknowledgement
	OpWriteback           // dirty line eviction to memory controller
	OpSynthetic           // synthetic-traffic payload (pattern workloads)
	NumOps
)

// String names the operation.
func (o Op) String() string {
	switch o {
	case OpReadReq:
		return "read-req"
	case OpWriteReq:
		return "write-req"
	case OpDataReply:
		return "data-reply"
	case OpAck:
		return "ack"
	case OpWriteback:
		return "writeback"
	case OpSynthetic:
		return "synthetic"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Group is one 5-bit router-control group in its wire form: bit 0 is
// Straight ... bit 4 Multicast, the λ1-λ5 assignment on the C0 waveguide.
// At most one of Straight, Left, Right is set; Local marks ejection
// (interim or final); Multicast marks the tap-and-continue broadcast mode.
type Group uint8

// The bits of a group, in wire order.
const (
	Straight Group = 1 << iota
	Left
	Right
	Local
	Multicast
)

// dirBits are the direction bits: at most one is set.
const dirBits = Straight | Left | Right

// Zero reports whether no bit is set (an unused trailing group).
func (g Group) Zero() bool { return g == 0 }

// Transit reports whether the group routes the packet onward through the
// router (a direction bit set).
func (g Group) Transit() bool { return g&dirBits != 0 }

// Valid reports whether the group is internally consistent: at most one
// direction bit set. Local may coexist with a direction bit: that marks an
// interim node, which receives the packet and later relaunches it in the
// encoded direction (paper Section 2.1.3).
func (g Group) Valid() bool {
	d := g & dirBits
	return d&(d-1) == 0
}

// Interim reports whether the group marks an interim stop: the packet is
// received here and relaunched later toward the direction bits.
func (g Group) Interim() bool { return g&Local != 0 && g.Transit() }

// Turn converts the group to a mesh.Turn. Direction bits take precedence so
// that interim groups (Local + direction) report the relaunch turn; a pure
// Local group ejects. It panics on an empty group; callers validate routes
// at construction time.
func (g Group) Turn() mesh.Turn {
	switch {
	case g&Straight != 0:
		return mesh.Straight
	case g&Left != 0:
		return mesh.LeftTurn
	case g&Right != 0:
		return mesh.RightTurn
	case g&Local != 0:
		return mesh.Eject
	default:
		panic("packet: Turn on empty control group")
	}
}

// groupNames names the bits of a group, in wire order.
var groupNames = [...]string{"S", "L", "R", "Loc", "M"}

// String renders the set bits, e.g. "S", "L+M", "Loc".
func (g Group) String() string {
	var b strings.Builder
	for i, name := range groupNames {
		if g&(1<<i) == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte('+')
		}
		b.WriteString(name)
	}
	if b.Len() == 0 {
		return "-"
	}
	return b.String()
}

const (
	// groupsPerWord is the number of groups one control waveguide carries.
	groupsPerWord = MaxGroups / ControlWaveguides
	// wordBits is the width of one control word: bits above it are zero.
	wordBits  = groupsPerWord * GroupBits
	groupMask = 1<<GroupBits - 1
	// wordOnes has the lowest bit of each of a word's groups set.
	wordOnes = (1<<wordBits - 1) / groupMask
)

// Control is the full predecoded route, packed as the two control
// waveguides carry it: C0 holds Groups 1-7 and C1 Groups 8-14, five bits a
// group in wire order, lowest group in the low bits. Group 1, the one the
// next router consumes, is Group(0). The number of meaningful groups, Used,
// is the position of the last non-empty one.
type Control struct {
	C0, C1 uint64
}

// Group returns group i (0-based).
func (c *Control) Group(i int) Group {
	w, shift := c.word(i)
	return Group(*w >> shift & groupMask)
}

// SetGroup replaces group i (0-based) with g.
func (c *Control) SetGroup(i int, g Group) {
	w, shift := c.word(i)
	*w = *w&^(groupMask<<shift) | uint64(g&groupMask)<<shift
}

// word returns the control word holding group i and the group's offset in it.
func (c *Control) word(i int) (*uint64, uint) {
	switch {
	case i >= 0 && i < groupsPerWord:
		return &c.C0, uint(i * GroupBits)
	case i >= groupsPerWord && i < MaxGroups:
		return &c.C1, uint((i - groupsPerWord) * GroupBits)
	}
	panic(fmt.Sprintf("packet: control group %d out of range", i))
}

// groupOnes[k] has the lowest bit of each of a control's first k groups
// set; interimOnes[h] the lowest bit of every h-th group, counting from
// Group 1, for h up to MaxGroups (a longer stride marks no group a route
// can reach). Multiplying by a group's bits spreads them to those groups.
var groupOnes, interimOnes = func() (ones, interims [MaxGroups + 1]Control) {
	for k := 1; k <= MaxGroups; k++ {
		ones[k] = ones[k-1]
		ones[k].SetGroup(k-1, 1)
		for i := k - 1; i < MaxGroups; i += k {
			interims[k].SetGroup(i, 1)
		}
	}
	return ones, interims
}()

// firstGroups returns groupOnes[k], k clamped to [0, MaxGroups]: callers
// pass a tapFrom past the last group, and Segment -1 for an empty control.
func firstGroups(k int) Control { return groupOnes[min(max(k, 0), MaxGroups)] }

// toggle flips the bits of g in every group of [lo, hi).
func (c *Control) toggle(lo, hi int, g Group) {
	h, l := firstGroups(hi), firstGroups(lo)
	c.C0 ^= uint64(g) * (h.C0 &^ l.C0)
	c.C1 ^= uint64(g) * (h.C1 &^ l.C1)
}

// Used returns the number of meaningful groups.
func (c *Control) Used() int {
	if c.C1 != 0 {
		return groupsPerWord + (bits.Len64(c.C1)+GroupBits-1)/GroupBits
	}
	return (bits.Len64(c.C0) + GroupBits - 1) / GroupBits
}

// Head returns the group the next router consumes.
func (c *Control) Head() Group { return Group(c.C0 & groupMask) }

// Shift consumes Group 1 and moves every later group up one position,
// modelling the C1->C0 physical shift plus the frequency translation of
// Groups 2-7 performed at each output port (Figure 3): one shift per
// word. It returns the consumed group.
func (c *Control) Shift() Group {
	head := c.Head()
	c.C0 = c.C0>>GroupBits | (c.C1&groupMask)<<(wordBits-GroupBits)
	c.C1 >>= GroupBits
	return head
}

// Validate checks structural invariants: no bits above either word's
// seventh group, every used group valid and non-empty, and the final used
// group ejecting (Local set) so the packet always leaves the network.
func (c *Control) Validate() error {
	if c.C0>>wordBits != 0 || c.C1>>wordBits != 0 {
		return fmt.Errorf("packet: control bits set above group %d of a word (C0 %#x, C1 %#x)", groupsPerWord, c.C0, c.C1)
	}
	used := c.Used()
	for i := 0; i < used; i++ {
		g := c.Group(i)
		if !g.Valid() {
			return fmt.Errorf("packet: group %d invalid: %s", i+1, g)
		}
		if g.Zero() {
			return fmt.Errorf("packet: group %d empty but within used range %d", i+1, used)
		}
	}
	if used > 0 && c.Group(used-1)&Local == 0 {
		return fmt.Errorf("packet: final group %s does not eject", c.Group(used-1))
	}
	return nil
}

// String renders the used groups, e.g. "[S S R Loc]".
func (c *Control) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i := 0; i < min(c.Used(), MaxGroups); i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(c.Group(i).String())
	}
	b.WriteByte(']')
	return b.String()
}

// DirAfterTurn applies the turn encoded by g to a packet travelling in
// direction travel and returns the new travel direction, or Local when the
// group ejects.
func DirAfterTurn(travel mesh.Dir, g Group) mesh.Dir { return travel.Turned(g.Turn()) }

// GroupForStep builds the control group for one router of a route: the
// packet arrives travelling in direction travel and must leave in direction
// out (or eject when out == mesh.Local). multicast marks tap-and-continue.
// A route never doubles back, so out == travel.Opposite() panics.
func GroupForStep(travel, out mesh.Dir, multicast bool) Group {
	var g Group
	if multicast {
		g = Multicast
	}
	if out == mesh.Local {
		return g | Local
	}
	switch mesh.TurnFor(travel, out) {
	case mesh.Straight:
		return g | Straight
	case mesh.LeftTurn:
		return g | Left
	case mesh.RightTurn:
		return g | Right
	}
	panic(fmt.Sprintf("packet: cannot encode %s->%s in one group", travel, out))
}

// EncodeRoute predecodes a route of a links travelling first, then b links
// travelling second, into control groups and returns them with the launch
// direction. second must not reverse first; either leg may be empty, not
// both. Every group from index tapFrom on carries the multicast bit. The
// source router's own routing decision is made at injection time and is not
// represented as a group; Group(0) is consumed by the first router after
// the source.
//
// Routes longer than the 14 groups a packet can carry are truncated at an
// interim stop on the 14th router: that node receives the packet, assumes
// responsibility, and rebuilds the control for the remainder (the Section
// 2.1.3 relaunch path). This extends the 8x8 packet format to larger
// meshes; within an 8x8 mesh no route exceeds 14 groups.
//
// The encoding is closed form: one mask sets every straight bit and the
// taps, then the corner turn and the last group, an eject or the
// truncation interim, are written over them.
func EncodeRoute(first mesh.Dir, a int, second mesh.Dir, b int, tapFrom int) (Control, mesh.Dir) {
	if a == 0 {
		first, a, b = second, b, 0
	}
	n := a + b
	if n == 0 {
		panic("packet: EncodeRoute of an empty route")
	}
	used := min(n, MaxGroups)
	var c Control
	c.toggle(0, used, Straight)
	c.toggle(tapFrom, used, Multicast)
	if b > 0 && a <= used {
		c.toggle(a-1, a, Straight^GroupForStep(first, second, false))
	}
	// The last group ejects instead of going straight on; a truncation
	// interim ejects and keeps the direction the journey continues in.
	last := Local
	if n <= MaxGroups {
		last |= Straight
	}
	c.toggle(used-1, used, last)
	return c, first
}

// BuildControl predecodes the dimension-order route from src to dst on m
// into control groups with EncodeRoute, returning the control and the
// direction the source must launch the packet in. src == dst is a
// configuration error and panics.
//
// Ownership: route compilation belongs to the topology layer. Simulators
// and harnesses must obtain control words through a topo.Topology's
// ControlEncoder (topo.Mesh2D delegates here); calling BuildControl
// directly outside internal/topo and this package's tests is deprecated —
// it hard-wires the caller to mesh geometry.
func BuildControl(m *mesh.Mesh, src, dst mesh.NodeID) (Control, mesh.Dir) {
	if src == dst {
		panic(fmt.Sprintf("packet: BuildControl with src == dst == %d", src))
	}
	h, a, v, b := m.Legs(src, dst)
	return EncodeRoute(h, a, v, b, MaxGroups)
}

// ControlFromDirs predecodes an explicit sequence of travel directions
// into control groups, returning the control and the direction the source
// must launch in. It is the arbitrary-route counterpart of BuildControl
// for fault-aware detours that leave the dimension-order template: dirs
// lists every link of the route in travel order, and consecutive
// directions must differ by at most one turn (no reversals — a minimal
// route never doubles back; GroupForStep panics on one). Routes longer
// than MaxGroups are truncated at an interim stop exactly as EncodeRoute
// truncates, leaving the interim node to rebuild the remainder. It builds
// the control group by group and panics on an empty route.
func ControlFromDirs(dirs []mesh.Dir) (Control, mesh.Dir) {
	if len(dirs) == 0 {
		panic("packet: ControlFromDirs with empty route")
	}
	n, truncated := len(dirs), false
	if n > MaxGroups {
		n, truncated = MaxGroups, true
	}
	var c Control
	for i := 1; i <= n; i++ {
		out := mesh.Local
		if i < n {
			out = dirs[i]
		}
		c.SetGroup(i-1, GroupForStep(dirs[i-1], out, false))
	}
	if truncated {
		c.SetGroup(n-1, Local|GroupForStep(dirs[n-1], dirs[n], false))
	}
	return c, dirs[0]
}

// MarkInterims sets the Local bit at every maxHops-th router of an existing
// control so that journeys longer than a single cycle stop at interim nodes
// that buffer and relaunch the packet (paper Section 2.1.3). The direction
// bits are retained: an interim group (Local + direction) tells the interim
// node which way to relaunch. maxHops counts links traversed per cycle; the
// source-to-first-router link is hop 1, so the first interim Local lands on
// group index maxHops-1 (0-based).
func (c *Control) MarkInterims(maxHops int) {
	if maxHops < 1 {
		panic(fmt.Sprintf("packet: MarkInterims with maxHops %d", maxHops))
	}
	m, below := interimOnes[min(maxHops, MaxGroups)], firstGroups(c.Used()-1)
	c.C0 |= uint64(Local) * (m.C0 & below.C0)
	c.C1 |= uint64(Local) * (m.C1 & below.C1)
}

// NextStop returns the number of groups up to and including the first group
// with Local set (the distance, in links, the current launch will cover
// before the packet is next received), or Used when no Local bit remains
// (malformed; Validate rejects such controls).
func (c *Control) NextStop() int {
	if l := c.C0 & (uint64(Local) * wordOnes); l != 0 {
		return bits.TrailingZeros64(l)/GroupBits + 1
	}
	if l := c.C1 & (uint64(Local) * wordOnes); l != 0 {
		return groupsPerWord + bits.TrailingZeros64(l)/GroupBits + 1
	}
	return c.Used()
}

// Segment returns the link count of the control's next single-cycle
// segment (NextStop) and the number of multicast taps at the routers the
// segment passes through before its stop, for transmit-energy accounting.
func (c *Control) Segment() (links, taps int) {
	links = c.NextStop()
	below := firstGroups(links - 1)
	taps = bits.OnesCount64(c.C0&(uint64(Multicast)*below.C0)) +
		bits.OnesCount64(c.C1&(uint64(Multicast)*below.C1))
	return links, taps
}

// MulticastMessage is one column-sweep message of a broadcast: the launch
// direction out of the source, the predecoded control, and the nodes it
// delivers to, in visit order.
type MulticastMessage struct {
	Launch   mesh.Dir
	Control  Control
	Delivers []mesh.NodeID
}

// BuildBroadcast decomposes a broadcast from src into up to 16 multicast
// column-sweep messages (8 when src sits on the top or bottom row), per
// paper Section 2.1.4. Each message travels along src's row to a target
// column (no deliveries en route), turns North or South, and delivers to
// every node of that column segment via multicast taps, ejecting at the
// segment end. The row-crossing node of each column is served by the upward
// sweep, or by the downward sweep when src is on the top row. src itself is
// never delivered to. maxHops interim stops are marked on every message.
// The messages' Delivers are capped windows of one shared array.
func BuildBroadcast(m *mesh.Mesh, src mesh.NodeID, maxHops int) []MulticastMessage {
	cs := m.Coord(src)
	top := m.Height() - 1
	b := sweepSet{
		m: m, src: src,
		msgs:     make([]MulticastMessage, 0, 2*m.Width()),
		delivers: make([]mesh.NodeID, 0, m.Nodes()-1),
	}
	for x := 0; x < m.Width(); x++ {
		if cs.Y < top {
			// Upward sweep covers (x, cs.Y) .. (x, top), minus src.
			yFirst := cs.Y
			if x == cs.X {
				yFirst = cs.Y + 1
			}
			b.add(x, mesh.North, yFirst, top)
		}
		// Downward sweep covers (x, cs.Y-1) .. (x, 0); when src is on
		// the top row it also covers the row-crossing node (x, cs.Y).
		yFirst := cs.Y - 1
		if cs.Y == top && x != cs.X {
			yFirst = cs.Y
		}
		b.add(x, mesh.South, yFirst, 0)
	}
	for i := range b.msgs {
		b.msgs[i].Control.MarkInterims(maxHops)
	}
	return b.msgs
}

// sweepSet accumulates one broadcast's sweeps in two allocations: the
// messages and the array their Delivers share.
type sweepSet struct {
	m        *mesh.Mesh
	src      mesh.NodeID
	msgs     []MulticastMessage
	delivers []mesh.NodeID
}

// add appends the multicast message from src that serves rows
// yFirst..yLast (inclusive, in vert order) of column x; an empty segment
// adds nothing.
func (b *sweepSet) add(x int, vert mesh.Dir, yFirst, yLast int) {
	m, src := b.m, b.src
	cs := m.Coord(src)
	step := 1
	if vert == mesh.South {
		step = -1
	}
	if (yLast-yFirst)*step < 0 {
		return
	}
	// Horizontal approach along src's row, then the vertical sweep.
	h, across, _, rows := m.Legs(src, m.ID(mesh.Coord{X: x, Y: yLast}))
	if across+rows == 0 {
		return
	}
	// Router across-1 is the corner at row cs.Y, and each later router is
	// one row further: the taps start at the router of row yFirst.
	var msg MulticastMessage
	msg.Control, msg.Launch = EncodeRoute(h, across, vert, rows, across-1+(yFirst-cs.Y)*step)
	// Delivery set: every node of the column segment.
	start := len(b.delivers)
	for y := yFirst; ; y += step {
		b.delivers = append(b.delivers, m.ID(mesh.Coord{X: x, Y: y}))
		if y == yLast {
			break
		}
	}
	msg.Delivers = b.delivers[start:len(b.delivers):len(b.delivers)]
	b.msgs = append(b.msgs, msg)
}
