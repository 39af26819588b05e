// Package vctm implements Virtual Circuit Tree Multicasting (Jerger, Peh,
// Lipasti, ISCA 2008) as used by the paper's electrical baseline to perform
// packet broadcasts (Section 4): a multicast packet follows a pre-built
// tree rooted at its source, and routers replicate it onto each child
// branch.
//
// Two builders exist. Build unions the fabric's unicast routes from the
// root to every destination — on the mesh these are the X-then-Y paths,
// which is exactly the tree the VCTM setup packets would carve out in a
// dimension-order network. BuildSpanning instead grows a breadth-first
// spanning tree over the fabric graph and prunes branches that reach no
// destination; it is the right shape for fabrics whose unicast routes can
// remerge or self-intersect (de Bruijn shuffles, multistage networks).
// The electrical simulator builds one tree per (source, destination-set)
// and caches it, mirroring VCTM's virtual-circuit-tree table reuse.
package vctm

import (
	"fmt"
	"math/bits"

	"phastlane/internal/mesh"
)

// RouteGraph is the topology view Build needs: node count, unicast route
// compilation and link traversal. Both *mesh.Mesh and the topo.Topology
// implementations satisfy it.
type RouteGraph interface {
	Nodes() int
	Neighbor(n mesh.NodeID, p mesh.Dir) (mesh.NodeID, bool)
	AppendRoute(buf []mesh.Dir, src, dst mesh.NodeID) []mesh.Dir
}

// Graph is the topology view BuildSpanning needs: full port enumeration
// for the breadth-first walk. topo.Topology satisfies it.
type Graph interface {
	RouteGraph
	Degree(n mesh.NodeID) int
}

// Tree is a multicast tree rooted at Src. The zero value is unusable;
// construct with Build or BuildSpanning. A built tree is read-only, so
// networks share one across every packet that follows it.
type Tree struct {
	src mesh.NodeID
	// children[n] lists node n's branch ports in ascending order; every
	// list is a capped window of one backing array. deliver[n] reports
	// whether node n consumes the packet.
	children [][]mesh.Dir
	deliver  []bool
	size     int
}

// newTree returns a tree over nodes nodes with every destination of dsts
// marked for delivery. It panics when dsts is empty or contains src.
func newTree(nodes int, src mesh.NodeID, dsts []mesh.NodeID) *Tree {
	if len(dsts) == 0 {
		panic("vctm: empty destination set")
	}
	t := &Tree{src: src, deliver: make([]bool, nodes), size: len(dsts)}
	for _, dst := range dsts {
		if dst == src {
			panic("vctm: destination set contains the source")
		}
		t.deliver[dst] = true
	}
	return t
}

// setChildren lays out the branch ports from per-node port masks:
// masks[n*stride:(n+1)*stride] holds node n's ports as bits, so walking
// the set bits lists them in ascending order.
func (t *Tree) setChildren(masks []uint64, stride int) {
	total := 0
	for _, w := range masks {
		total += bits.OnesCount64(w)
	}
	ports := make([]mesh.Dir, 0, total)
	t.children = make([][]mesh.Dir, len(masks)/stride)
	for n := range t.children {
		start := len(ports)
		for i, w := range masks[n*stride : (n+1)*stride] {
			for ; w != 0; w &= w - 1 {
				ports = append(ports, mesh.Dir(64*i+bits.TrailingZeros64(w)))
			}
		}
		if len(ports) > start {
			t.children[n] = ports[start:len(ports):len(ports)]
		}
	}
}

// Build constructs the route-union multicast tree from src to dsts.
// It panics when dsts is empty or contains src (configuration errors),
// or when a route leaves a node through a port above 63 (a mesh has four;
// BuildSpanning serves high-degree fabrics).
func Build(g RouteGraph, src mesh.NodeID, dsts []mesh.NodeID) *Tree {
	t := newTree(g.Nodes(), src, dsts)
	masks := make([]uint64, g.Nodes())
	var route []mesh.Dir
	for _, dst := range dsts {
		cur := src
		route = g.AppendRoute(route[:0], src, dst)
		for _, d := range route {
			if d >= 64 {
				panic(fmt.Sprintf("vctm: route port %d at %d beyond Build's 64-port masks", d, cur))
			}
			masks[cur] |= 1 << d
			next, ok := g.Neighbor(cur, d)
			if !ok {
				panic(fmt.Sprintf("vctm: route walks off fabric at %d", cur))
			}
			cur = next
		}
	}
	t.setChildren(masks, 1)
	return t
}

// BuildSpanning constructs a breadth-first spanning multicast tree from
// src covering dsts, pruned to the branches that reach at least one
// destination. Ports are explored in ascending order, so the tree is
// deterministic. Terminal nodes (degree 1, as on Benes endpoints) are
// never expanded through — a delivered packet does not re-enter the
// fabric — except for src itself, which injects. It panics when dsts is
// empty, contains src, or some destination is unreachable.
func BuildSpanning(g Graph, src mesh.NodeID, dsts []mesh.NodeID) *Tree {
	t := newTree(g.Nodes(), src, dsts)
	parent := make([]mesh.NodeID, g.Nodes())
	inPort := make([]mesh.Dir, g.Nodes())
	seen := make([]bool, g.Nodes())
	seen[src] = true
	queue := []mesh.NodeID{src}
	maxDegree := 0
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur != src && g.Degree(cur) == 1 {
			continue
		}
		maxDegree = max(maxDegree, g.Degree(cur))
		for p := 0; p < g.Degree(cur); p++ {
			next, ok := g.Neighbor(cur, mesh.Dir(p))
			if !ok || seen[next] {
				continue
			}
			seen[next] = true
			parent[next] = cur
			inPort[next] = mesh.Dir(p)
			queue = append(queue, next)
		}
	}
	// Keep each destination's path back to src, stopping where it joins
	// a path already kept.
	stride := (maxDegree + 63) / 64
	masks := make([]uint64, g.Nodes()*stride)
	onPath := make([]bool, g.Nodes())
	for _, dst := range dsts {
		if !seen[dst] {
			panic(fmt.Sprintf("vctm: destination %d unreachable from %d", dst, src))
		}
		for cur := dst; cur != src && !onPath[cur]; cur = parent[cur] {
			onPath[cur] = true
			p, d := int(parent[cur]), int(inPort[cur])
			masks[p*stride+d/64] |= 1 << (d % 64)
		}
	}
	t.setChildren(masks, stride)
	return t
}

// Src returns the tree root.
func (t *Tree) Src() mesh.NodeID { return t.src }

// Destinations returns the number of delivery targets.
func (t *Tree) Destinations() int { return t.size }

// Children returns the branch directions a multicast packet replicates
// onto at the given router, in ascending order (empty at leaves). The
// returned slice is shared; callers must not modify it.
func (t *Tree) Children(at mesh.NodeID) []mesh.Dir { return t.children[at] }

// Deliver reports whether the packet is consumed by the local node at the
// given router.
func (t *Tree) Deliver(at mesh.NodeID) bool { return t.deliver[at] }

// Key canonically identifies a destination set for tree caching: the
// source, then the set as a bitmap over node IDs, so it needs no sorting.
func Key(src mesh.NodeID, dsts []mesh.NodeID) string {
	top := mesh.NodeID(0)
	for _, d := range dsts {
		top = max(top, d)
	}
	b := make([]byte, 2+top/8+1)
	b[0], b[1] = byte(src), byte(src>>8)
	for _, d := range dsts {
		b[2+d/8] |= 1 << (d % 8)
	}
	return string(b)
}
