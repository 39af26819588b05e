package topo

import (
	"fmt"

	"phastlane/internal/exp"
	"phastlane/internal/mesh"
)

// Benes is an n-endpoint rearrangeable multistage network: 2k-1 stages
// of n/2 two-by-two switches (n = 2^k), wired so that stage s pairs the
// wires differing in bit b(s), with b(s) descending k-1..0 over the
// first k stages and ascending 1..k-1 over the rest (a butterfly and an
// inverse butterfly sharing their middle stage). Routing is distributed
// in the spirit of the Benes-control paper: no global permutation
// algorithm runs — each packet self-routes, spending the first k-1
// stages on a deterministic per-(src,dst) spreading choice for load
// balance and the last k stages forcing the destination address one bit
// per stage. Every route is exactly 2k links: source endpoint into
// stage 0, one hop per stage, last stage into the destination endpoint.
//
// Node IDs place the n endpoints first (0..n-1); switch (s, j) is node
// n + s*(n/2) + j. Endpoints have one port (into stage 0); switches have
// two (their output wires, port = the value taken by bit b(s)).
type Benes struct {
	k      int // log2(n)
	n      int // endpoints
	stages int // 2k-1
}

var _ Topology = (*Benes)(nil)

// NewBenes returns the Benes topology with n endpoints. n must be a
// power of two and at least 2.
func NewBenes(n int) (*Benes, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("benes: endpoint count %d is not a power of two >= 2", n)
	}
	k := 0
	for 1<<k < n {
		k++
	}
	return &Benes{k: k, n: n, stages: 2*k - 1}, nil
}

// stageBit returns b(s), the wire bit that stage s switches.
func (t *Benes) stageBit(s int) int {
	if s < t.k-1 {
		return t.k - 1 - s
	}
	return s - (t.k - 1)
}

// compress drops bit β from wire w, yielding the switch index that
// handles w at a stage switching bit β.
func compress(w, beta int) int {
	return (w>>(beta+1))<<beta | w&(1<<beta-1)
}

// expand re-inserts bit β with the given value into switch index j,
// yielding the wire leaving that switch through port bit.
func expand(j, beta, bit int) int {
	return (j>>beta)<<(beta+1) | bit<<beta | j&(1<<beta-1)
}

// freeBit is the spreading choice at free stage s (s < k-1), drawn from
// a hash of the (src, dst) pair so repeated routes stay identical while
// distinct pairs scatter across the middle stages.
func (t *Benes) freeBit(src, dst mesh.NodeID, s int) int {
	return int(exp.Mix64(uint64(src)*uint64(t.n)+uint64(dst)) >> uint(s) & 1)
}

// Name returns "benes".
func (t *Benes) Name() string { return "benes" }

// Nodes counts endpoints plus all stage switches.
func (t *Benes) Nodes() int { return t.n + t.stages*t.n/2 }

// Endpoints returns the input/output terminal count n.
func (t *Benes) Endpoints() int { return t.n }

// switchID maps stage and index to the node ID.
func (t *Benes) switchID(s, j int) mesh.NodeID {
	return mesh.NodeID(t.n + s*t.n/2 + j)
}

// switchAt inverts switchID; ok is false for endpoint IDs.
func (t *Benes) switchAt(n mesh.NodeID) (s, j int, ok bool) {
	v := int(n) - t.n
	if v < 0 {
		return 0, 0, false
	}
	return v / (t.n / 2), v % (t.n / 2), true
}

// Degree is 1 for endpoints (the injection wire) and 2 for switches.
func (t *Benes) Degree(n mesh.NodeID) int {
	if int(n) < t.n {
		return 1
	}
	return 2
}

// Neighbor follows port p: endpoints feed their stage-0 switch; switch
// (s, j) port p leads along wire expand(j, b(s), p) to stage s+1, or to
// that wire's endpoint after the last stage.
func (t *Benes) Neighbor(n mesh.NodeID, p mesh.Dir) (mesh.NodeID, bool) {
	if int(n) < t.n {
		if p != 0 {
			return 0, false
		}
		return t.switchID(0, compress(int(n), t.stageBit(0))), true
	}
	s, j, ok := t.switchAt(n)
	if !ok || p < 0 || p > 1 || s >= t.stages {
		return 0, false
	}
	w := expand(j, t.stageBit(s), int(p))
	if s == t.stages-1 {
		return mesh.NodeID(w), true
	}
	return t.switchID(s+1, compress(w, t.stageBit(s+1))), true
}

// HopDistance is 2k links between distinct endpoints — every route
// crosses all 2k-1 stages. It is defined for endpoints only and panics
// on switch IDs.
func (t *Benes) HopDistance(a, b mesh.NodeID) int {
	if int(a) >= t.n || int(b) >= t.n {
		panic(fmt.Sprintf("benes: HopDistance on non-endpoint %d->%d", a, b))
	}
	if a == b {
		return 0
	}
	return 2 * t.k
}

// AppendRoute compiles the distributed route: port 0 out of the source
// endpoint, then one bit choice per stage — spreading bits first,
// destination bits last.
func (t *Benes) AppendRoute(buf []mesh.Dir, src, dst mesh.NodeID) []mesh.Dir {
	if src == dst {
		return buf
	}
	buf = append(buf, 0)
	for s := 0; s < t.stages; s++ {
		buf = append(buf, t.routeBit(src, dst, s))
	}
	return buf
}

// routeBit is the port taken at stage s of the (src, dst) route.
func (t *Benes) routeBit(src, dst mesh.NodeID, s int) mesh.Dir {
	if s < t.k-1 {
		return mesh.Dir(t.freeBit(src, dst, s))
	}
	return mesh.Dir(int(dst) >> uint(t.stageBit(s)) & 1)
}

// PortAt answers random-access route queries without materialising the
// route.
func (t *Benes) PortAt(src, dst mesh.NodeID, i int) mesh.Dir {
	if src == dst || i < 0 || i >= 2*t.k {
		panic(fmt.Sprintf("benes: PortAt index %d out of range for route %d->%d", i, src, dst))
	}
	if i == 0 {
		return 0
	}
	return t.routeBit(src, dst, i-1)
}

// MaxRouteLen is the uniform route length 2k.
func (t *Benes) MaxRouteLen() int { return 2 * t.k }

// NodeLabel renders endpoints as "e<i>" and switches as "s<stage>.<idx>".
func (t *Benes) NodeLabel(n mesh.NodeID) string {
	if s, j, ok := t.switchAt(n); ok {
		return fmt.Sprintf("s%d.%d", s, j)
	}
	return fmt.Sprintf("e%d", n)
}
