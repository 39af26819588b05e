package mesh

import (
	"math/rand"
	"testing"
)

// TestActiveSetMatchesMap drives random Add/Remove traffic against a map
// model on sizes around the 64-bit word boundaries and checks Has, Len
// and that a walk yields exactly the members in ascending order.
func TestActiveSetMatchesMap(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, nodes := range []int{1, 63, 64, 65, 130, 1024} {
		s := NewActiveSet(nodes, false)
		model := map[NodeID]bool{}
		for op := 0; op < 4000; op++ {
			node := NodeID(r.Intn(nodes))
			if r.Intn(3) == 0 {
				s.Remove(node)
				delete(model, node)
			} else {
				s.Add(node)
				model[node] = true
			}
			if op%97 != 0 {
				continue
			}
			if s.Len() != len(model) {
				t.Fatalf("%d nodes, op %d: Len %d, model %d", nodes, op, s.Len(), len(model))
			}
			walk := s.Members(nil)
			if len(walk) != len(model) {
				t.Fatalf("%d nodes, op %d: walk visits %d members, model has %d", nodes, op, len(walk), len(model))
			}
			for i, node := range walk {
				if !model[node] || !s.Has(node) || (i > 0 && walk[i-1] >= node) {
					t.Fatalf("%d nodes, op %d: walk %v is not the ascending member list", nodes, op, walk)
				}
			}
		}
	}
}

// TestActiveSetDense checks the reference form: every node a member from
// the start, for good, and Remove reports that it kept the node.
func TestActiveSetDense(t *testing.T) {
	for _, nodes := range []int{4, 64, 100} {
		s := NewActiveSet(nodes, true)
		if s.Remove(NodeID(nodes - 1)) {
			t.Errorf("%d nodes: dense Remove reports the node left", nodes)
		}
		if s.Len() != nodes || !s.Has(NodeID(nodes-1)) {
			t.Fatalf("%d nodes: dense set lost a member (Len %d)", nodes, s.Len())
		}
		if walk := s.Members(nil); len(walk) != nodes || walk[nodes-1] != NodeID(nodes-1) {
			t.Fatalf("%d nodes: dense walk %v", nodes, walk)
		}
	}
	if s := NewActiveSet(10, false); !s.Remove(3) {
		t.Error("Remove on an event-driven set reports the node stayed")
	}
}
