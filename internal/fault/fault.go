// Package fault is the deterministic fault-injection subsystem shared by
// the Phastlane optical simulator and the electrical baseline. A Plan
// schedules permanent and transient hardware faults — dead links, stuck
// routers, electrical buffer-slot failures, and control-bit corruption
// from resonator drift — and is compiled per network instance into an
// Injector the simulators consult on their hot paths.
//
// Determinism is the design centre, matching internal/exp: every fault in
// a plan is explicit, RandomPlan derives placements from a seed with
// exp.Mix64, and control corruption is a pure hash of (seed, cycle, node,
// message), so two runs of the same plan produce bit-identical event
// streams regardless of scheduling. A nil or empty plan costs nothing:
// the simulators guard every consultation behind a nil-injector check,
// the same discipline internal/obs uses for tracers.
package fault

import (
	"encoding/json"
	"fmt"
	"strings"

	"phastlane/internal/mesh"
)

// Kind classifies a scheduled fault.
type Kind int

// Fault kinds.
const (
	// DeadLink disables the directed link out of Node toward Dir (and,
	// because optical waveguides and their drop-signal return paths fail
	// together, the simulators treat the reverse direction independently:
	// schedule both if the whole physical channel dies).
	DeadLink Kind = iota
	// StuckRouter freezes the router at Node: it cannot launch, eject,
	// or accept traffic, and every link touching it is unusable while
	// the fault is active.
	StuckRouter
	// BufferSlots disables Slots entries of the electrical buffer on
	// port Dir of Node (mesh.Local addresses the NIC injection queue;
	// in the electrical baseline the slots are virtual channels).
	BufferSlots

	numKinds
)

// String names the kind using the spec-DSL keyword.
func (k Kind) String() string {
	switch k {
	case DeadLink:
		return "dead-link"
	case StuckRouter:
		return "stuck"
	case BufferSlots:
		return "slots"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// kindByName maps the spec/JSON keyword back to the kind.
func kindByName(s string) (Kind, bool) {
	switch s {
	case "dead-link":
		return DeadLink, true
	case "stuck":
		return StuckRouter, true
	case "slots":
		return BufferSlots, true
	}
	return 0, false
}

// Fault is one scheduled fault. The zero Until means the fault is
// permanent; otherwise the fault is transient and heals at cycle Until
// (exclusive: the hardware works again from Until on).
type Fault struct {
	Kind Kind
	Node mesh.NodeID
	// Dir is the affected link (DeadLink) or buffer port (BufferSlots);
	// ignored for StuckRouter.
	Dir mesh.Dir
	// Slots is how many buffer entries fail (BufferSlots only).
	Slots int
	// From is the activation cycle; Until the heal cycle (0 = never).
	From, Until int64
}

// validate checks one fault against the mesh dimensions.
func (f Fault) validate(m *mesh.Mesh) error {
	if f.Node < 0 || int(f.Node) >= m.Nodes() {
		return fmt.Errorf("fault: node %d outside the %d-node mesh", f.Node, m.Nodes())
	}
	if f.From < 0 {
		return fmt.Errorf("fault: %s@%d activates at negative cycle %d", f.Kind, f.Node, f.From)
	}
	if f.Until != 0 && f.Until <= f.From {
		return fmt.Errorf("fault: %s@%d heals at %d, not after activation at %d", f.Kind, f.Node, f.Until, f.From)
	}
	switch f.Kind {
	case DeadLink:
		if f.Dir < 0 || f.Dir >= mesh.NumLinkDirs {
			return fmt.Errorf("fault: dead-link@%d with non-link direction %s", f.Node, f.Dir)
		}
		if _, ok := m.Neighbor(f.Node, f.Dir); !ok {
			return fmt.Errorf("fault: dead-link@%d:%s points off the mesh edge", f.Node, f.Dir)
		}
	case StuckRouter:
		// No direction.
	case BufferSlots:
		if f.Dir < 0 || f.Dir >= mesh.NumDirs {
			return fmt.Errorf("fault: slots@%d with direction %s", f.Node, f.Dir)
		}
		if f.Slots < 1 {
			return fmt.Errorf("fault: slots@%d:%s disables %d entries", f.Node, f.Dir, f.Slots)
		}
	default:
		return fmt.Errorf("fault: unknown kind %d", int(f.Kind))
	}
	return nil
}

// Plan is a complete fault schedule plus the corruption model. The zero
// value (and nil) is the empty plan: no faults, no corruption.
type Plan struct {
	// Seed drives the corruption hash and nothing else; fault placement
	// is explicit in Faults.
	Seed int64
	// CorruptRate is the per-hop probability that resonator drift
	// corrupts a packet's control group at a router, in [0, 1).
	CorruptRate float64
	Faults      []Fault
}

// Empty reports whether the plan schedules nothing.
func (p *Plan) Empty() bool {
	return p == nil || (len(p.Faults) == 0 && p.CorruptRate == 0)
}

// Validate checks the plan against a width x height mesh.
func (p *Plan) Validate(width, height int) error {
	if p == nil {
		return nil
	}
	if width < 1 || height < 1 {
		return fmt.Errorf("fault: plan validated against %dx%d mesh", width, height)
	}
	if p.CorruptRate < 0 || p.CorruptRate >= 1 {
		return fmt.Errorf("fault: corruption rate %v outside [0,1)", p.CorruptRate)
	}
	m := mesh.New(width, height)
	for i, f := range p.Faults {
		if err := f.validate(m); err != nil {
			return fmt.Errorf("fault %d: %w", i, err)
		}
	}
	return nil
}

// faultJSON is the wire form of one fault: kind and direction as strings.
type faultJSON struct {
	Kind  string `json:"kind"`
	Node  int    `json:"node"`
	Dir   string `json:"dir,omitempty"`
	Slots int    `json:"slots,omitempty"`
	From  int64  `json:"from,omitempty"`
	Until int64  `json:"until,omitempty"`
}

// planJSON is the wire form of a plan.
type planJSON struct {
	Seed        int64       `json:"seed,omitempty"`
	CorruptRate float64     `json:"corrupt_rate,omitempty"`
	Faults      []faultJSON `json:"faults,omitempty"`
}

// MarshalJSON encodes the plan with symbolic kinds and directions.
func (p *Plan) MarshalJSON() ([]byte, error) {
	out := planJSON{Seed: p.Seed, CorruptRate: p.CorruptRate}
	for _, f := range p.Faults {
		jf := faultJSON{Kind: f.Kind.String(), Node: int(f.Node), Slots: f.Slots, From: f.From, Until: f.Until}
		if f.Kind != StuckRouter {
			jf.Dir = f.Dir.String()
		}
		out.Faults = append(out.Faults, jf)
	}
	return json.Marshal(out)
}

// UnmarshalJSON decodes the wire form; unknown kinds or directions are
// errors, missing directions default to Local (valid only where a kind
// ignores them).
func (p *Plan) UnmarshalJSON(data []byte) error {
	var in planJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	plan := Plan{Seed: in.Seed, CorruptRate: in.CorruptRate}
	for i, jf := range in.Faults {
		k, ok := kindByName(jf.Kind)
		if !ok {
			return fmt.Errorf("fault %d: unknown kind %q", i, jf.Kind)
		}
		f := Fault{Kind: k, Node: mesh.NodeID(jf.Node), Dir: mesh.Local, Slots: jf.Slots, From: jf.From, Until: jf.Until}
		if jf.Dir != "" {
			d, ok := dirByName(jf.Dir)
			if !ok {
				return fmt.Errorf("fault %d: unknown direction %q", i, jf.Dir)
			}
			f.Dir = d
		}
		plan.Faults = append(plan.Faults, f)
	}
	*p = plan
	return nil
}

// ParseJSON decodes and structurally checks a JSON plan. Mesh-dependent
// validation (node ranges, edge links) happens in Validate.
func ParseJSON(data []byte) (*Plan, error) {
	var p Plan
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("fault: parsing plan JSON: %w", err)
	}
	return &p, nil
}

// dirByName parses the single-letter direction names mesh.Dir.String uses.
func dirByName(s string) (mesh.Dir, bool) {
	switch strings.ToUpper(s) {
	case "N":
		return mesh.North, true
	case "E":
		return mesh.East, true
	case "S":
		return mesh.South, true
	case "W":
		return mesh.West, true
	case "L":
		return mesh.Local, true
	}
	return 0, false
}
