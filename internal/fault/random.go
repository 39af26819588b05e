package fault

import (
	"fmt"

	"phastlane/internal/exp"
	"phastlane/internal/mesh"
)

// RandomSpec sizes a randomly-placed fault plan.
type RandomSpec struct {
	// DeadLinks is how many distinct directed links die.
	DeadLinks int
	// StuckRouters is how many distinct routers freeze.
	StuckRouters int
	// SlotFaults is how many (node, port) buffer-slot failures occur;
	// each disables one entry.
	SlotFaults int
	// CorruptRate is the per-hop control-corruption probability.
	CorruptRate float64
}

// RandomPlan places rs's faults uniformly over a width x height mesh,
// deterministically from seed: the same (seed, dims, spec) always yields
// the same plan, so degradation sweeps are reproducible run to run. All
// faults are permanent from cycle 0. Placements are distinct per
// category; the function panics when a category asks for more faults than
// the mesh has places (a configuration error).
func RandomPlan(seed int64, width, height int, rs RandomSpec) *Plan {
	m := mesh.New(width, height)
	p := &Plan{Seed: seed, CorruptRate: rs.CorruptRate}
	state := uint64(seed)
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		return exp.Mix64(state)
	}

	// Directed interior links: enumerate once so draws are O(1) and
	// distinct by index.
	type link struct {
		node mesh.NodeID
		dir  mesh.Dir
	}
	var links []link
	for n := 0; n < m.Nodes(); n++ {
		for d := mesh.Dir(0); d < mesh.NumLinkDirs; d++ {
			if _, ok := m.Neighbor(mesh.NodeID(n), d); ok {
				links = append(links, link{mesh.NodeID(n), d})
			}
		}
	}
	for _, l := range drawDistinct(rs.DeadLinks, len(links), next, "dead links") {
		p.Faults = append(p.Faults, Fault{Kind: DeadLink, Node: links[l].node, Dir: links[l].dir})
	}
	for _, n := range drawDistinct(rs.StuckRouters, m.Nodes(), next, "stuck routers") {
		p.Faults = append(p.Faults, Fault{Kind: StuckRouter, Node: mesh.NodeID(n)})
	}
	for _, s := range drawDistinct(rs.SlotFaults, m.Nodes()*mesh.NumDirs, next, "slot faults") {
		p.Faults = append(p.Faults, Fault{
			Kind: BufferSlots, Node: mesh.NodeID(s / mesh.NumDirs), Dir: mesh.Dir(s % mesh.NumDirs), Slots: 1,
		})
	}
	return p
}

// drawDistinct draws count distinct indices from [0, n) using the given
// uniform source, by rejection; index order follows the draw sequence.
func drawDistinct(count, n int, next func() uint64, what string) []int {
	if count > n {
		panic(fmt.Sprintf("fault: %d %s requested but only %d places exist", count, what, n))
	}
	seen := make(map[int]bool, count)
	out := make([]int, 0, count)
	for len(out) < count {
		i := int(next() % uint64(n))
		if seen[i] {
			continue
		}
		seen[i] = true
		out = append(out, i)
	}
	return out
}
