package mesh

import "math/bits"

// ActiveSet is the event-driven mesh kernels' set of routers that may hold
// work: a bitmap over node IDs, one bit a node, pre-sized at construction
// so steady-state use allocates nothing.
//
// A kernel keeps busy(node) ⇒ member by calling Add at every idle→busy
// edge, and clears members lazily: when a walk finds a member idle, it
// calls Remove. Walks visit members in ascending node order (Members),
// the order of a dense loop over every router, so a kernel that no-ops on
// idle routers produces bit-identical results whether it walks the set or
// the whole mesh. Membership changes nearly completely from cycle to
// cycle when packets cross several routers a cycle, which a bitmap
// absorbs at O(1) a change; listing the members costs O(nodes/64 +
// members).
//
// A dense set (NewActiveSet with dense true) is the reference form: every
// node is a member from the start and Remove is a no-op, so the same walk
// code visits every router, as a kernel without an active set would.
type ActiveSet struct {
	words []uint64
	dense bool
}

// NewActiveSet returns a set over node IDs [0, nodes): empty, or with
// every node a member for good when dense.
func NewActiveSet(nodes int, dense bool) ActiveSet {
	s := ActiveSet{words: make([]uint64, (nodes+63)/64), dense: dense}
	if dense {
		for i := 0; i < nodes; i++ {
			s.Add(NodeID(i))
		}
	}
	return s
}

// Add makes node a member; a no-op for members.
func (s *ActiveSet) Add(node NodeID) { s.words[node>>6] |= 1 << (uint(node) & 63) }

// Remove clears node's membership and reports whether node is now
// outside the set: false for a dense set, whose members stay for good.
func (s *ActiveSet) Remove(node NodeID) bool {
	if s.dense {
		return false
	}
	s.words[node>>6] &^= 1 << (uint(node) & 63)
	return true
}

// Has reports whether node is a member.
func (s *ActiveSet) Has(node NodeID) bool { return s.words[node>>6]&(1<<(uint(node)&63)) != 0 }

// Len returns the member count.
func (s *ActiveSet) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Members appends the members to buf in ascending order and returns the
// extended slice. A walk over that list may Remove the node it visits.
// Listing first keeps each 64-node word in a register, where a
// next-member query per node would reload it.
func (s *ActiveSet) Members(buf []NodeID) []NodeID {
	for w, word := range s.words {
		for ; word != 0; word &= word - 1 {
			buf = append(buf, NodeID(w<<6+bits.TrailingZeros64(word)))
		}
	}
	return buf
}
