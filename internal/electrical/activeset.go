package electrical

// Active-set maintenance for the event-driven kernel.
//
// A router belongs in the active set exactly while it holds work: at least
// one occupied VC (a non-zero occupied mask) or a queued NIC entry. Everything a
// pipeline phase does — ejection, injection, VC allocation, switch
// allocation, aging — requires one of those, so walking only set members
// is behaviourally identical to the dense walk (the differential
// equivalence suite enforces this, event for event). State that idle
// routers merely *expose* to busy neighbours — empty-VC credit timers
// (availAt), upstream reservations — is read in place by the busy side
// and never requires the idle router to run.
//
// Representation: a sorted []mesh.NodeID (ascending, so phase walks visit
// routers in exactly the dense order and event streams, float energy
// accumulation order, iSLIP pointer updates and transit append order all
// match bit for bit), plus an intrusive per-router membership flag
// (listed) that makes activation O(1) and idempotent. Routers activated
// since the last cycle accumulate in activeAdd; once per Step,
// mergeActive sorts that delta, merges it into the sorted list, and drops
// members that went idle — O(active + changed·log changed) per cycle,
// with zero steady-state allocation (the merge ping-pongs between two
// retained backing arrays).
//
// Invariant (both kernels maintain it; Quiescent depends on it):
// busy(node) ⇒ listed[node]. Activation happens at the only two
// idle→busy edges — Inject appending to a NIC and a link arrival filling
// a VC. Deactivation is lazy: a router that went idle stays listed until
// the next merge, where every phase no-ops on it, exactly as the dense
// walk no-ops on idle routers.

import (
	"slices"

	"phastlane/internal/mesh"
)

// busy reports whether node currently holds work.
func (n *Network) busy(node mesh.NodeID) bool {
	return n.routers[node].occupied != 0 || len(n.routers[node].nic) > 0
}

// activate enrolls node in the active set; a no-op for members.
func (n *Network) activate(node mesh.NodeID) {
	if !n.listed[node] {
		n.listed[node] = true
		n.activeAdd = append(n.activeAdd, node)
	}
}

// mergeActive folds newly activated routers into the sorted active list,
// compacts out routers that went idle, and returns the list for this
// cycle's phase walk. Called once per Step by the event-driven kernel
// (the dense reference walks allNodes and never merges; its activeAdd
// grows to at most the ever-active router set, keeping Quiescent exact).
func (n *Network) mergeActive() []mesh.NodeID {
	if len(n.activeAdd) > 1 {
		slices.Sort(n.activeAdd)
	}
	// n.active and n.activeAdd are disjoint (the listed flag guards
	// admission), so a plain two-way merge yields strictly ascending IDs.
	out := n.activeScratch[:0]
	i, j := 0, 0
	for i < len(n.active) || j < len(n.activeAdd) {
		var node mesh.NodeID
		if j >= len(n.activeAdd) || (i < len(n.active) && n.active[i] < n.activeAdd[j]) {
			node = n.active[i]
			i++
		} else {
			node = n.activeAdd[j]
			j++
		}
		if n.busy(node) {
			out = append(out, node)
		} else {
			n.listed[node] = false
		}
	}
	n.activeScratch = n.active[:0]
	n.active = out
	n.activeAdd = n.activeAdd[:0]
	return n.active
}
