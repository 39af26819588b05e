package fault

import (
	"fmt"
	"math"
	"sort"

	"phastlane/internal/exp"
	"phastlane/internal/mesh"
)

// window is one active interval [from, until).
type window struct {
	from, until int64
}

func (w window) active(cycle int64) bool { return cycle >= w.from && cycle < w.until }

// slotWindow is a buffer-slot failure: slots entries lost while active.
type slotWindow struct {
	window
	slots int
}

// Effect is the outcome of one control-corruption event.
type Effect int

// Corruption effects.
const (
	// EffectNone: the packet's control bits survived this hop.
	EffectNone Effect = iota
	// EffectDrop: the router detected garbage control and dropped the
	// packet, returning the drop signal to the responsible sender.
	EffectDrop
	// EffectMisroute: the drifted resonator steered the packet off its
	// route; the router captures it and the owner must re-route.
	EffectMisroute
)

// Transition is one fault boundary: a fault activating or healing.
type Transition struct {
	Cycle int64
	Kind  Kind
	Node  mesh.NodeID
	Dir   mesh.Dir
	// Start is true at activation, false at heal.
	Start bool
}

// Injector is a plan compiled against one mesh instance: dense per-link
// and per-node window tables the simulators query on their hot paths.
// Each network arms its own Injector (the transition cursor is per-run
// state); the underlying Plan is never mutated and may be shared.
//
// All query methods are safe on a nil receiver and report "no fault", but
// the simulators skip even the call when no plan is armed.
type Injector struct {
	nodes int
	// links[node*NumLinkDirs+dir] holds the dead windows of the directed
	// link out of node toward dir, including windows inherited from
	// stuck routers at either endpoint.
	links [][]window
	// stuck[node] holds the node's stuck windows, merged at Arm into
	// sorted, disjoint, non-adjacent intervals (StuckCycles sums them).
	stuck [][]window
	// slots[node*NumDirs+dir] holds buffer-slot failures of the port.
	slots [][]slotWindow
	// corruptThreshold is CorruptRate scaled to the uint64 range; 0
	// disables corruption. seed feeds the corruption hash.
	corruptThreshold uint64
	seed             uint64

	transitions []Transition
	cursor      int
}

// Arm compiles the plan against m. The empty plan arms to nil, so callers
// can keep a single nil check on hot paths.
func (p *Plan) Arm(m *mesh.Mesh) (*Injector, error) {
	if p.Empty() {
		return nil, nil
	}
	if err := p.Validate(m.Width(), m.Height()); err != nil {
		return nil, err
	}
	in := &Injector{
		nodes: m.Nodes(),
		links: make([][]window, m.Nodes()*mesh.NumLinkDirs),
		stuck: make([][]window, m.Nodes()),
		slots: make([][]slotWindow, m.Nodes()*mesh.NumDirs),
		seed:  exp.Mix64(uint64(p.Seed) ^ 0x9e3779b97f4a7c15),
	}
	if p.CorruptRate > 0 {
		in.corruptThreshold = uint64(p.CorruptRate * math.MaxUint64)
	}
	for _, f := range p.Faults {
		w := window{from: f.From, until: f.Until}
		if w.until == 0 {
			w.until = math.MaxInt64
		}
		switch f.Kind {
		case DeadLink:
			in.addLink(f.Node, f.Dir, w)
			in.transition(f, w)
		case StuckRouter:
			in.stuck[f.Node] = append(in.stuck[f.Node], w)
			// A stuck router takes down every link touching it, in
			// both directions, so routing and transit checks need
			// only the link table.
			for d := mesh.Dir(0); d < mesh.NumLinkDirs; d++ {
				nb, ok := m.Neighbor(f.Node, d)
				if !ok {
					continue
				}
				in.addLink(f.Node, d, w)
				in.addLink(nb, d.Opposite(), w)
			}
			in.transition(f, w)
		case BufferSlots:
			idx := int(f.Node)*mesh.NumDirs + int(f.Dir)
			in.slots[idx] = append(in.slots[idx], slotWindow{window: w, slots: f.Slots})
			in.transition(f, w)
		default:
			return nil, fmt.Errorf("fault: unknown kind %d", int(f.Kind))
		}
	}
	for node := range in.stuck {
		in.stuck[node] = mergeWindows(in.stuck[node])
	}
	sort.SliceStable(in.transitions, func(a, b int) bool {
		return in.transitions[a].Cycle < in.transitions[b].Cycle
	})
	return in, nil
}

// mergeWindows sorts ws by start and folds overlapping and adjacent
// windows together, in place. The union of the windows, and so every
// active query over them, is unchanged.
func mergeWindows(ws []window) []window {
	if len(ws) < 2 {
		return ws
	}
	sort.Slice(ws, func(a, b int) bool { return ws[a].from < ws[b].from })
	out := ws[:1]
	for _, w := range ws[1:] {
		last := &out[len(out)-1]
		if w.from <= last.until {
			last.until = max(last.until, w.until)
			continue
		}
		out = append(out, w)
	}
	return out
}

// addLink records a dead window on the directed link (node, dir).
func (in *Injector) addLink(node mesh.NodeID, dir mesh.Dir, w window) {
	idx := int(node)*mesh.NumLinkDirs + int(dir)
	in.links[idx] = append(in.links[idx], w)
}

// transition records the activation (and heal, for transient faults)
// boundaries of f for event emission.
func (in *Injector) transition(f Fault, w window) {
	in.transitions = append(in.transitions, Transition{Cycle: w.from, Kind: f.Kind, Node: f.Node, Dir: f.Dir, Start: true})
	if w.until != math.MaxInt64 {
		in.transitions = append(in.transitions, Transition{Cycle: w.until, Kind: f.Kind, Node: f.Node, Dir: f.Dir, Start: false})
	}
}

// LinkDown reports whether the directed link out of node toward d is
// unusable at cycle (dead, or touching a stuck router).
func (in *Injector) LinkDown(cycle int64, node mesh.NodeID, d mesh.Dir) bool {
	if in == nil {
		return false
	}
	for _, w := range in.links[int(node)*mesh.NumLinkDirs+int(d)] {
		if w.active(cycle) {
			return true
		}
	}
	return false
}

// NodeStuck reports whether the router at node is frozen at cycle.
func (in *Injector) NodeStuck(cycle int64, node mesh.NodeID) bool {
	if in == nil {
		return false
	}
	for _, w := range in.stuck[node] {
		if w.active(cycle) {
			return true
		}
	}
	return false
}

// StuckCycles counts the cycles in [0, cycle) during which NodeStuck(·,
// node) was true. A router's rotating launch priority advances once each
// cycle it is not stuck, so the optical kernel derives the pointer from
// this count instead of stepping every idle router.
func (in *Injector) StuckCycles(cycle int64, node mesh.NodeID) int64 {
	if in == nil {
		return 0
	}
	var n int64
	for _, w := range in.stuck[node] {
		if w.from >= cycle {
			break
		}
		n += min(w.until, cycle) - w.from
	}
	return n
}

// LostSlots returns how many buffer entries of port d at node are failed
// at cycle.
func (in *Injector) LostSlots(cycle int64, node mesh.NodeID, d mesh.Dir) int {
	if in == nil {
		return 0
	}
	lost := 0
	for _, w := range in.slots[int(node)*mesh.NumDirs+int(d)] {
		if w.active(cycle) {
			lost += w.slots
		}
	}
	return lost
}

// Corrupt reports whether resonator drift corrupts the control group of
// msgID arriving at node this cycle, and with what effect. The decision
// is a pure hash of (plan seed, cycle, node, msgID): independent of
// evaluation order, so armed runs are reproducible event for event.
func (in *Injector) Corrupt(cycle int64, node mesh.NodeID, msgID uint64) Effect {
	if in == nil || in.corruptThreshold == 0 {
		return EffectNone
	}
	h := exp.Mix64(in.seed ^ uint64(cycle)*0xbf58476d1ce4e5b9 ^ uint64(node)*0x94d049bb133111eb ^ msgID*0xd6e8feb86659fd93)
	if h >= in.corruptThreshold {
		return EffectNone
	}
	if exp.Mix64(h)&1 == 0 {
		return EffectDrop
	}
	return EffectMisroute
}

// Step hands the caller every fault boundary due at or before cycle, once,
// in schedule order — the simulators surface these as observability
// events. Cycles must be visited in non-decreasing order (one call per
// Step, as the simulators do).
func (in *Injector) Step(cycle int64, emit func(Transition)) {
	if in == nil {
		return
	}
	for in.cursor < len(in.transitions) && in.transitions[in.cursor].Cycle <= cycle {
		if emit != nil {
			emit(in.transitions[in.cursor])
		}
		in.cursor++
	}
}

// Pending reports whether any transition at or before cycle has not been
// delivered yet — the cheap guard the simulators use before calling Step.
func (in *Injector) Pending(cycle int64) bool {
	return in != nil && in.cursor < len(in.transitions) && in.transitions[in.cursor].Cycle <= cycle
}
