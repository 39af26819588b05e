package fault

import (
	"encoding/json"
	"reflect"
	"testing"

	"phastlane/internal/mesh"
)

func samplePlan() *Plan {
	return &Plan{
		Seed:        7,
		CorruptRate: 0.001,
		Faults: []Fault{
			{Kind: DeadLink, Node: 12, Dir: mesh.North},
			{Kind: DeadLink, Node: 9, Dir: mesh.East, From: 100, Until: 500},
			// Dir is ignored for stuck routers; both parsers
			// canonicalise it to the Local placeholder.
			{Kind: StuckRouter, Node: 5, Dir: mesh.Local, From: 1000},
			{Kind: BufferSlots, Node: 3, Dir: mesh.Local, Slots: 2},
		},
	}
}

func TestSpecRoundTrip(t *testing.T) {
	p := samplePlan()
	spec := p.Spec()
	back, err := ParseSpec(spec)
	if err != nil {
		t.Fatalf("ParseSpec(%q): %v", spec, err)
	}
	if !reflect.DeepEqual(p, back) {
		t.Fatalf("spec round trip:\n  plan %+v\n  spec %q\n  back %+v", p, spec, back)
	}
}

func TestParseSpecExamples(t *testing.T) {
	p, err := ParseSpec(" seed=7; corrupt=0.25 ;dead-link@12:N#100-500; stuck@5 ;slots@3:L=1#0-200 ")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 || p.CorruptRate != 0.25 || len(p.Faults) != 3 {
		t.Fatalf("parsed %+v", p)
	}
	want := []Fault{
		{Kind: DeadLink, Node: 12, Dir: mesh.North, From: 100, Until: 500},
		{Kind: StuckRouter, Node: 5, Dir: mesh.Local},
		{Kind: BufferSlots, Node: 3, Dir: mesh.Local, Slots: 1, Until: 200},
	}
	// ParseSpec leaves Dir at the Local placeholder for stuck routers.
	if !reflect.DeepEqual(p.Faults, want) {
		t.Fatalf("faults %+v, want %+v", p.Faults, want)
	}
	if empty, err := ParseSpec("  "); err != nil || !empty.Empty() {
		t.Fatalf("blank spec: %+v, %v", empty, err)
	}
}

func TestParseSpecErrors(t *testing.T) {
	bad := []string{
		"nonsense",
		"dead-link@12",       // missing direction
		"stuck@5:N",          // stuck routers take no direction
		"slots@3:L",          // missing slot count
		"dead-link@12:N=2",   // slot count on a non-slots fault
		"dead-link@12:Q",     // unknown direction
		"dead-link@twelve:N", // bad node
		"seed=x",             // bad seed
		"corrupt=1.5",        // rate out of range
		"slots@3:L=x",        // bad slot count
		"dead-link@1:N#x",    // bad window start
		"dead-link@1:N#5-x",  // bad window end
		"wat@3:N",            // unknown kind
	}
	for _, spec := range bad {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q) accepted", spec)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	p := samplePlan()
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseJSON(data)
	if err != nil {
		t.Fatalf("ParseJSON(%s): %v", data, err)
	}
	if !reflect.DeepEqual(p, back) {
		t.Fatalf("JSON round trip:\n  plan %+v\n  json %s\n  back %+v", p, data, back)
	}
	if _, err := ParseJSON([]byte(`{"faults":[{"kind":"warp","node":1}]}`)); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := ParseJSON([]byte(`{"faults":[{"kind":"dead-link","node":1,"dir":"Q"}]}`)); err == nil {
		t.Error("unknown direction accepted")
	}
}

func TestValidate(t *testing.T) {
	if err := (*Plan)(nil).Validate(8, 8); err != nil {
		t.Errorf("nil plan: %v", err)
	}
	if err := samplePlan().Validate(8, 8); err != nil {
		t.Errorf("sample plan: %v", err)
	}
	bad := []Plan{
		{CorruptRate: 1},
		{CorruptRate: -0.1},
		{Faults: []Fault{{Kind: DeadLink, Node: 64, Dir: mesh.North}}},   // off mesh
		{Faults: []Fault{{Kind: DeadLink, Node: 0, Dir: mesh.South}}},    // edge link (node 0 has no south neighbor)
		{Faults: []Fault{{Kind: DeadLink, Node: 1, Dir: mesh.Local}}},    // not a link direction
		{Faults: []Fault{{Kind: BufferSlots, Node: 1, Dir: mesh.North}}}, // zero slots
		{Faults: []Fault{{Kind: StuckRouter, Node: 1, From: -1}}},        // negative start
		{Faults: []Fault{{Kind: StuckRouter, Node: 1, From: 5, Until: 5}}},
		{Faults: []Fault{{Kind: Kind(99), Node: 1}}},
	}
	for i, p := range bad {
		if err := p.Validate(8, 8); err == nil {
			t.Errorf("bad plan %d accepted: %+v", i, p)
		}
	}
}

func TestArmEmptyPlan(t *testing.T) {
	for _, p := range []*Plan{nil, {}, {Seed: 3}} {
		in, err := p.Arm(mesh.New(4, 4))
		if err != nil || in != nil {
			t.Fatalf("Arm(%+v) = %v, %v; want nil, nil", p, in, err)
		}
	}
	// All queries are nil-receiver safe and report no fault.
	var in *Injector
	if in.LinkDown(0, 0, mesh.East) || in.NodeStuck(0, 0) || in.LostSlots(0, 0, mesh.Local) != 0 {
		t.Error("nil injector reports faults")
	}
	if in.Corrupt(0, 0, 1) != EffectNone {
		t.Error("nil injector corrupts")
	}
	if in.Pending(1 << 40) {
		t.Error("nil injector has pending transitions")
	}
	in.Step(0, nil)
}

func TestInjectorWindows(t *testing.T) {
	p := &Plan{Faults: []Fault{
		{Kind: DeadLink, Node: 9, Dir: mesh.East, From: 100, Until: 500},
	}}
	in, err := p.Arm(mesh.New(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		cycle int64
		down  bool
	}{{0, false}, {99, false}, {100, true}, {499, true}, {500, false}} {
		if got := in.LinkDown(tc.cycle, 9, mesh.East); got != tc.down {
			t.Errorf("LinkDown(%d) = %v, want %v", tc.cycle, got, tc.down)
		}
	}
	if in.LinkDown(200, 9, mesh.West) || in.LinkDown(200, 10, mesh.East) {
		t.Error("unrelated links report down")
	}
}

func TestStuckRouterKillsAdjacentLinks(t *testing.T) {
	m := mesh.New(8, 8)
	p := &Plan{Faults: []Fault{{Kind: StuckRouter, Node: 27}}}
	in, err := p.Arm(m)
	if err != nil {
		t.Fatal(err)
	}
	if !in.NodeStuck(0, 27) || in.NodeStuck(0, 26) {
		t.Fatal("NodeStuck wrong")
	}
	for d := mesh.Dir(0); d < mesh.NumLinkDirs; d++ {
		nb, ok := m.Neighbor(27, d)
		if !ok {
			continue
		}
		if !in.LinkDown(0, 27, d) {
			t.Errorf("link out of stuck node toward %s alive", d)
		}
		if !in.LinkDown(0, nb, d.Opposite()) {
			t.Errorf("link into stuck node from %d alive", nb)
		}
	}
}

func TestLostSlotsAccumulate(t *testing.T) {
	p := &Plan{Faults: []Fault{
		{Kind: BufferSlots, Node: 3, Dir: mesh.Local, Slots: 2},
		{Kind: BufferSlots, Node: 3, Dir: mesh.Local, Slots: 1, From: 50, Until: 60},
	}}
	in, err := p.Arm(mesh.New(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	if got := in.LostSlots(0, 3, mesh.Local); got != 2 {
		t.Errorf("LostSlots(0) = %d, want 2", got)
	}
	if got := in.LostSlots(55, 3, mesh.Local); got != 3 {
		t.Errorf("LostSlots(55) = %d, want 3", got)
	}
	if got := in.LostSlots(55, 3, mesh.North); got != 0 {
		t.Errorf("other port lost %d", got)
	}
}

func TestCorruptDeterministicAndRated(t *testing.T) {
	p := &Plan{Seed: 42, CorruptRate: 0.01}
	arm := func() *Injector {
		in, err := p.Arm(mesh.New(8, 8))
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	a, b := arm(), arm()
	hits := 0
	const draws = 200000
	for i := 0; i < draws; i++ {
		cycle, node, msg := int64(i%977), mesh.NodeID(i%64), uint64(i)
		ea := a.Corrupt(cycle, node, msg)
		if eb := b.Corrupt(cycle, node, msg); ea != eb {
			t.Fatalf("corruption not a pure function at draw %d: %v vs %v", i, ea, eb)
		}
		if ea != EffectNone {
			hits++
		}
	}
	rate := float64(hits) / draws
	if rate < 0.005 || rate > 0.02 {
		t.Errorf("observed corruption rate %v far from configured 0.01", rate)
	}
}

func TestTransitions(t *testing.T) {
	p := &Plan{Faults: []Fault{
		{Kind: DeadLink, Node: 9, Dir: mesh.East, From: 100, Until: 500},
		{Kind: StuckRouter, Node: 5},
	}}
	in, err := p.Arm(mesh.New(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	var got []Transition
	collect := func(tr Transition) { got = append(got, tr) }
	if !in.Pending(0) {
		t.Fatal("cycle-0 activation not pending")
	}
	in.Step(0, collect)
	if len(got) != 1 || got[0].Kind != StuckRouter || !got[0].Start {
		t.Fatalf("cycle 0 transitions: %+v", got)
	}
	if in.Pending(50) {
		t.Error("pending between boundaries")
	}
	in.Step(250, collect)
	in.Step(600, collect)
	if len(got) != 3 || !got[1].Start || got[2].Start {
		t.Fatalf("transitions: %+v", got)
	}
	if in.Pending(1 << 40) {
		t.Error("transitions left after drain")
	}
}

func TestRandomPlanDeterministicAndValid(t *testing.T) {
	rs := RandomSpec{DeadLinks: 6, StuckRouters: 2, SlotFaults: 4, CorruptRate: 0.001}
	a := RandomPlan(11, 8, 8, rs)
	b := RandomPlan(11, 8, 8, rs)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different plans")
	}
	if err := a.Validate(8, 8); err != nil {
		t.Fatalf("random plan invalid: %v", err)
	}
	c := RandomPlan(12, 8, 8, rs)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical plans")
	}
	if got := len(a.Faults); got != 12 {
		t.Fatalf("fault count %d, want 12", got)
	}
}
