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

// Group is one 5-bit router-control group. Exactly one of Straight, Left,
// Right may be set for a transit group; Local marks ejection (interim or
// final); Multicast marks the tap-and-continue broadcast mode.
type Group struct {
	Straight  bool
	Left      bool
	Right     bool
	Local     bool
	Multicast bool
}

// Zero reports whether no bit is set (an unused trailing group).
func (g Group) Zero() bool {
	return !g.Straight && !g.Left && !g.Right && !g.Local && !g.Multicast
}

// Transit reports whether the group routes the packet onward through the
// router (exactly one direction bit set).
func (g Group) Transit() bool { return g.Straight || g.Left || g.Right }

// Valid reports whether the group is internally consistent: at most one
// direction bit set. Local may coexist with a direction bit: that marks an
// interim node, which receives the packet and later relaunches it in the
// encoded direction (paper Section 2.1.3).
func (g Group) Valid() bool {
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

// Interim reports whether the group marks an interim stop: the packet is
// received here and relaunched later toward the direction bits.
func (g Group) Interim() bool { return g.Local && g.Transit() }

// Turn converts the group to a mesh.Turn. Direction bits take precedence so
// that interim groups (Local + direction) report the relaunch turn; a pure
// Local group ejects. It panics on an empty group; callers validate routes
// at construction time.
func (g Group) Turn() mesh.Turn {
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
		panic("packet: Turn on empty control group")
	}
}

// String renders the set bits, e.g. "S", "L+M", "Loc".
func (g Group) String() string {
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

// Pack encodes the group into its 5-bit wire form (bit 0 = Straight ...
// bit 4 = Multicast), mirroring the λ1-λ5 assignment on the C0 waveguide.
func (g Group) Pack() uint8 {
	var b uint8
	if g.Straight {
		b |= 1 << 0
	}
	if g.Left {
		b |= 1 << 1
	}
	if g.Right {
		b |= 1 << 2
	}
	if g.Local {
		b |= 1 << 3
	}
	if g.Multicast {
		b |= 1 << 4
	}
	return b
}

// UnpackGroup decodes a 5-bit wire form produced by Pack.
func UnpackGroup(b uint8) Group {
	return Group{
		Straight:  b&(1<<0) != 0,
		Left:      b&(1<<1) != 0,
		Right:     b&(1<<2) != 0,
		Local:     b&(1<<3) != 0,
		Multicast: b&(1<<4) != 0,
	}
}

// Control is the full predecoded route: Groups[0] is the Group 1 the next
// router will consume. Used is the number of meaningful groups.
type Control struct {
	Groups [MaxGroups]Group
	Used   int
}

// Head returns the group the next router consumes.
func (c *Control) Head() Group {
	if c.Used == 0 {
		return Group{}
	}
	return c.Groups[0]
}

// Shift consumes Group 1 and moves every later group up one position,
// modelling the C1->C0 physical shift plus the frequency translation of
// Groups 2-7 performed at each output port (Figure 3). It returns the
// consumed group.
func (c *Control) Shift() Group {
	head := c.Groups[0]
	copy(c.Groups[:], c.Groups[1:])
	c.Groups[MaxGroups-1] = Group{}
	if c.Used > 0 {
		c.Used--
	}
	return head
}

// Validate checks structural invariants: every used group valid and
// non-empty, every unused group empty, and the final used group ejecting
// (Local set) so the packet always leaves the network.
func (c *Control) Validate() error {
	if c.Used < 0 || c.Used > MaxGroups {
		return fmt.Errorf("packet: control uses %d groups, want 0..%d", c.Used, MaxGroups)
	}
	for i := 0; i < c.Used; i++ {
		g := c.Groups[i]
		if !g.Valid() {
			return fmt.Errorf("packet: group %d invalid: %s", i+1, g)
		}
		if g.Zero() {
			return fmt.Errorf("packet: group %d empty but within used range %d", i+1, c.Used)
		}
	}
	for i := c.Used; i < MaxGroups; i++ {
		if !c.Groups[i].Zero() {
			return fmt.Errorf("packet: group %d set beyond used range %d", i+1, c.Used)
		}
	}
	if c.Used > 0 && !c.Groups[c.Used-1].Local {
		return fmt.Errorf("packet: final group %s does not eject", c.Groups[c.Used-1])
	}
	return nil
}

// String renders the used groups, e.g. "[S S R Loc]".
func (c *Control) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i := 0; i < c.Used; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(c.Groups[i].String())
	}
	b.WriteByte(']')
	return b.String()
}

// Packet is a single Phastlane flit. Packets are passed by pointer; the
// simulator allocates one per logical message and reuses it across
// retransmissions (updating Control and bookkeeping fields).
type Packet struct {
	// ID uniquely identifies the logical message for statistics.
	ID uint64
	// Src is the original injecting node; Dst the final destination.
	// For multicast messages Dst is the last node of the sweep and
	// MulticastDsts lists every node the message must deliver to.
	Src, Dst mesh.NodeID
	// Op is the message type.
	Op Op
	// Addr is the cache-line address for coherence traffic (diagnostic).
	Addr uint64
	// Control holds the remaining predecoded route, relative to the
	// router the packet is about to enter.
	Control Control
	// Multicast route metadata: destinations not yet served. Nil for
	// unicast packets.
	MulticastDsts []mesh.NodeID
	// InjectCycle is when the message first entered a NIC queue;
	// LaunchCycle is when the current transmission attempt launched.
	InjectCycle, LaunchCycle int64
	// Hops accumulates link traversals across all attempts (for power).
	Hops int
	// Retries counts drop-triggered retransmissions.
	Retries int
	// Dep, if non-zero, is the ID of the message that must be delivered
	// before this one may be injected (trace replay dependency).
	Dep uint64
}

// DirAfterTurn applies the turn encoded by g to a packet travelling in
// direction travel and returns the new travel direction, or Local when the
// group ejects.
func DirAfterTurn(travel mesh.Dir, g Group) mesh.Dir {
	switch g.Turn() {
	case mesh.Eject:
		return mesh.Local
	case mesh.Straight:
		return travel
	case mesh.LeftTurn:
		return leftOf(travel)
	default:
		return rightOf(travel)
	}
}

func leftOf(d mesh.Dir) mesh.Dir {
	switch d {
	case mesh.North:
		return mesh.West
	case mesh.West:
		return mesh.South
	case mesh.South:
		return mesh.East
	default:
		return mesh.North
	}
}

func rightOf(d mesh.Dir) mesh.Dir {
	switch d {
	case mesh.North:
		return mesh.East
	case mesh.East:
		return mesh.South
	case mesh.South:
		return mesh.West
	default:
		return mesh.North
	}
}

// GroupForStep builds the control group for one router of a route: the
// packet arrives travelling in direction travel and must leave in direction
// out (or eject when out == mesh.Local). multicast marks tap-and-continue.
func GroupForStep(travel, out mesh.Dir, multicast bool) Group {
	g := Group{Multicast: multicast}
	if out == mesh.Local {
		g.Local = true
		return g
	}
	switch mesh.TurnFor(travel, out) {
	case mesh.Straight:
		g.Straight = true
	case mesh.LeftTurn:
		g.Left = true
	case mesh.RightTurn:
		g.Right = true
	default:
		panic(fmt.Sprintf("packet: cannot encode %s->%s in one group", travel, out))
	}
	return g
}

// BuildControl predecodes the dimension-order route from src to dst on m
// into control groups. The source router's own routing decision is made at
// injection time and is not represented as a group; Groups[0] is consumed by
// the first router after the source. It returns the direction the source
// must launch the packet in. src == dst is a configuration error and panics.
//
// Routes longer than the 14 groups a packet can carry are truncated at an
// interim stop on the 14th router: that node receives the packet, assumes
// responsibility, and rebuilds the control for the remainder (the Section
// 2.1.3 relaunch path). This extends the 8x8 packet format to larger
// meshes; within an 8x8 mesh no route exceeds 14 groups.
//
// Ownership: route compilation belongs to the topology layer. Simulators
// and harnesses must obtain control words through a topo.Topology's
// ControlEncoder (topo.Mesh2D delegates here); calling BuildControl
// directly outside internal/topo and this package's tests is deprecated —
// it hard-wires the caller to mesh geometry.
func BuildControl(m *mesh.Mesh, src, dst mesh.NodeID) (Control, mesh.Dir) {
	total := m.HopDistance(src, dst)
	if total == 0 {
		panic(fmt.Sprintf("packet: BuildControl with src == dst == %d", src))
	}
	// The route directions are read via mesh.RouteDir rather than a
	// materialised m.Route slice: BuildControl sits on the relaunch hot
	// path (every bypass re-segmentation) and must not allocate.
	n, truncated := total, false
	if n > MaxGroups {
		n, truncated = MaxGroups, true
	}
	var c Control
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
		// The final group becomes an interim stop: Local plus the
		// direction the journey continues in.
		last := &c.Groups[c.Used-1]
		last.Local = true
		cont := m.RouteDir(src, dst, MaxGroups)
		g := GroupForStep(m.RouteDir(src, dst, n-1), cont, false)
		last.Straight, last.Left, last.Right = g.Straight, g.Left, g.Right
	}
	return c, launch
}

// ControlFromDirs predecodes an explicit sequence of travel directions
// into control groups, returning the control and the direction the source
// must launch in. It is the arbitrary-route counterpart of BuildControl
// for fault-aware detours that leave the dimension-order template: dirs
// lists every link of the route in travel order, and consecutive
// directions must differ by at most one turn (no reversals — a minimal
// route never doubles back). Routes longer than MaxGroups are truncated
// at an interim stop exactly as BuildControl truncates, leaving the
// interim node to rebuild the remainder. It panics on an empty route.
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
		c.Groups[i-1] = GroupForStep(dirs[i-1], out, false)
		c.Used = i
	}
	if truncated {
		last := &c.Groups[c.Used-1]
		last.Local = true
		g := GroupForStep(dirs[n-1], dirs[n], false)
		last.Straight, last.Left, last.Right = g.Straight, g.Left, g.Right
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
	for i := maxHops - 1; i < c.Used-1; i += maxHops {
		c.Groups[i].Local = true
	}
}

// NextStop returns the number of groups up to and including the first group
// with Local set (the distance, in links, the current launch will cover
// before the packet is next received), or Used when no Local bit remains
// (malformed; Validate rejects such controls).
func (c *Control) NextStop() int {
	for i := 0; i < c.Used; i++ {
		if c.Groups[i].Local {
			return i + 1
		}
	}
	return c.Used
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
		dirs:     make([]mesh.Dir, 0, m.Width()+m.Height()),
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

// sweepSet accumulates one broadcast's sweeps in three allocations: the
// messages, the array their Delivers share, and the route scratch.
type sweepSet struct {
	m        *mesh.Mesh
	src      mesh.NodeID
	msgs     []MulticastMessage
	delivers []mesh.NodeID
	dirs     []mesh.Dir
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
	h := mesh.East
	if x < cs.X {
		h = mesh.West
	}
	dirs := b.dirs[:0]
	for i := 0; i < absInt(x-cs.X); i++ {
		dirs = append(dirs, h)
	}
	for i := 0; i < absInt(yLast-cs.Y); i++ {
		dirs = append(dirs, vert)
	}
	b.dirs = dirs
	if len(dirs) == 0 {
		return
	}
	// Sweeps longer than the control capacity are truncated at an
	// interim stop that relaunches the remainder (see BuildControl).
	var contDir mesh.Dir
	truncated := false
	if len(dirs) > MaxGroups {
		contDir = dirs[MaxGroups]
		dirs = dirs[:MaxGroups]
		truncated = true
	}
	msg := MulticastMessage{Launch: dirs[0]}
	// Delivery set: every node of the column segment.
	start := len(b.delivers)
	for y := yFirst; ; y += step {
		b.delivers = append(b.delivers, m.ID(mesh.Coord{X: x, Y: y}))
		if y == yLast {
			break
		}
	}
	msg.Delivers = b.delivers[start:len(b.delivers):len(b.delivers)]
	// Control groups: router i (0-based, the i-th router after src) sees
	// travel dirs[i] and exits dirs[i+1] (Local at the end). Multicast
	// bit set on every group that serves a delivery node: a node of
	// column x between the segment's ends.
	cur := src
	for i := 0; i < len(dirs); i++ {
		next, ok := m.Neighbor(cur, dirs[i])
		if !ok {
			panic(fmt.Sprintf("packet: broadcast sweep walks off mesh at %d going %s", cur, dirs[i]))
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
		last := &msg.Control.Groups[msg.Control.Used-1]
		last.Local = true
		g := GroupForStep(dirs[len(dirs)-1], contDir, false)
		last.Straight, last.Left, last.Right = g.Straight, g.Left, g.Right
	}
	b.msgs = append(b.msgs, msg)
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
