package packet

import (
	"math/rand"
	"testing"

	"phastlane/internal/mesh"
)

// BenchmarkEncodeRoute times the unicast route rebuild a bypass relaunch
// runs (resegment): EncodeRoute on a dimension-order route's two legs,
// then MarkInterims at four hops a cycle. It cycles through a fixed list
// of 256 source-destination pairs on a 64x64 mesh, so routes of every
// length up to and past the 14-group truncation occur.
//
//	go test -run '^$' -bench EncodeRoute -benchmem ./internal/packet/
func BenchmarkEncodeRoute(b *testing.B) {
	type legs struct {
		h, v mesh.Dir
		a, n int
	}
	m := mesh.New(64, 64)
	rng := rand.New(rand.NewSource(1))
	routes := make([]legs, 256)
	for i := range routes {
		src := mesh.NodeID(rng.Intn(m.Nodes()))
		dst := mesh.NodeID(rng.Intn(m.Nodes() - 1))
		if dst >= src {
			dst++
		}
		var l legs
		l.h, l.a, l.v, l.n = m.Legs(src, dst)
		routes[i] = l
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		l := &routes[i&(len(routes)-1)]
		c, _ := EncodeRoute(l.h, l.a, l.v, l.n, MaxGroups)
		c.MarkInterims(4)
		sink ^= c.C0 ^ c.C1
	}
	if sink == 0 {
		b.Log("all controls cancelled out")
	}
}
