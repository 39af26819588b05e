package fault

import (
	"math/rand"
	"testing"

	"phastlane/internal/mesh"
)

// stuckAt is the plan-level truth NodeStuck must reproduce: some
// StuckRouter fault on node covers cycle, read straight from the plan's
// unmerged windows.
func stuckAt(p *Plan, node mesh.NodeID, cycle int64) bool {
	for _, f := range p.Faults {
		if f.Kind == StuckRouter && f.Node == node && cycle >= f.From && (f.Until == 0 || cycle < f.Until) {
			return true
		}
	}
	return false
}

// randomStuckPlan schedules stuck windows on a few nodes of a 3x3 mesh:
// nested, overlapping, adjacent and disjoint, some open-ended, in shuffled
// order so Arm's merge sees them unsorted.
func randomStuckPlan(r *rand.Rand) *Plan {
	p := &Plan{}
	for k := 1 + r.Intn(3); k > 0; k-- {
		node := mesh.NodeID(r.Intn(9))
		from := int64(r.Intn(50))
		for j := 1 + r.Intn(5); j > 0; j-- {
			until := from + 1 + int64(r.Intn(40))
			f := Fault{Kind: StuckRouter, Node: node, From: from, Until: until}
			if r.Intn(6) == 0 {
				f.Until = 0
			}
			p.Faults = append(p.Faults, f)
			switch r.Intn(4) {
			case 0: // nested: a window inside this one
				from += int64(r.Intn(int(until - from)))
				p.Faults = append(p.Faults, Fault{Kind: StuckRouter, Node: node, From: from, Until: from + 1 + int64(r.Intn(int(until-from)))})
				from = until + int64(r.Intn(30))
			case 1: // overlapping
				from += int64(r.Intn(int(until - from)))
			case 2: // adjacent
				from = until
			default:
				from = until + 1 + int64(r.Intn(30))
			}
		}
	}
	// A dead link keeps a plan without stuck windows on some node
	// non-empty; it must not count as stuck time.
	p.Faults = append(p.Faults, Fault{Kind: DeadLink, Node: 0, Dir: mesh.East, From: 5, Until: 25})
	r.Shuffle(len(p.Faults), func(i, j int) { p.Faults[i], p.Faults[j] = p.Faults[j], p.Faults[i] })
	return p
}

// TestStuckCyclesMatchesBruteForce checks StuckCycles against a cycle by
// cycle count of the plan's stuck windows, at cycles before, inside, on
// the edges of and after every window, and checks that merging the
// windows at Arm leaves NodeStuck unchanged at every cycle.
func TestStuckCyclesMatchesBruteForce(t *testing.T) {
	m := mesh.New(3, 3)
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		p := randomStuckPlan(r)
		in, err := p.Arm(m)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		const horizon = 600
		for node := mesh.NodeID(0); node < 9; node++ {
			// count[c] is the brute-force stuck count over [0, c).
			count := make([]int64, horizon+1)
			for c := int64(0); c < horizon; c++ {
				stuck := stuckAt(p, node, c)
				if got := in.NodeStuck(c, node); got != stuck {
					t.Fatalf("trial %d node %d cycle %d: NodeStuck %v after merging, plan says %v\nplan %s",
						trial, node, c, got, stuck, p.Spec())
				}
				count[c+1] = count[c]
				if stuck {
					count[c+1]++
				}
			}
			queries := []int64{0, 1, horizon}
			for _, f := range p.Faults {
				if f.Node != node {
					continue
				}
				queries = append(queries, f.From-1, f.From, f.From+1, (f.From+f.Until)/2)
				if f.Until != 0 {
					queries = append(queries, f.Until-1, f.Until, f.Until+1)
				}
			}
			for _, q := range queries {
				if q < 0 || q > horizon {
					continue
				}
				if got := in.StuckCycles(q, node); got != count[q] {
					t.Fatalf("trial %d node %d: StuckCycles(%d) = %d, brute force %d\nplan %s",
						trial, node, q, got, count[q], p.Spec())
				}
			}
		}
	}
}

// TestStuckCyclesNilInjector pins the no-plan contract the optical
// kernel's rotation relies on.
func TestStuckCyclesNilInjector(t *testing.T) {
	var in *Injector
	if got := in.StuckCycles(1000, 3); got != 0 {
		t.Fatalf("nil injector: StuckCycles = %d, want 0", got)
	}
}
