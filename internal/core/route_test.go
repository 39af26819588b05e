package core

import (
	"math/rand"
	"testing"

	"phastlane/internal/mesh"
	"phastlane/internal/sim"
	"phastlane/internal/traffic"
)

// TestRoutedParcelsMatchResegment pins the bypass route cache: after every
// Step, each parcel waiting to relaunch (queued, or dropped and due back
// in its owner's queue) whose routed flag is set must carry exactly the
// control and launch a fresh resegment from its owner builds. Saturating
// unicast makes parcels change owner at interim and blocked routers;
// broadcasts add sweeps whose taps shorten remaining before a drop.
func TestRoutedParcelsMatchResegment(t *testing.T) {
	const cycles = 600
	for _, tc := range []struct {
		name    string
		pattern traffic.Pattern
		bcast   float64 // broadcasts per node per cycle
	}{
		{"Transpose", traffic.Transpose(64), 0},
		{"BitReverse", traffic.BitReverse(64), 0},
		{"Broadcast", traffic.Transpose(64), 0.02},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := New(DefaultConfig())
			inj := traffic.NewInjector(tc.pattern, n.Nodes(), 0.30, 3)
			rng := rand.New(rand.NewSource(5))
			all := make([]mesh.NodeID, n.Nodes())
			for i := range all {
				all[i] = mesh.NodeID(i)
			}
			id, checked := uint64(0), 0
			var buf []sim.Delivery
			for c := 0; c < cycles; c++ {
				for src := range all {
					if tc.bcast > 0 && rng.Float64() < tc.bcast && n.NICFree(mesh.NodeID(src)) > 0 {
						id++
						dsts := append(append([]mesh.NodeID(nil), all[:src]...), all[src+1:]...)
						n.Inject(sim.Message{ID: id, Src: mesh.NodeID(src), Dsts: dsts})
					}
				}
				for _, in := range inj.Tick() {
					if n.NICFree(in.Src) > 0 {
						id++
						n.Inject(sim.Message{ID: id, Src: in.Src, Dsts: []mesh.NodeID{in.Dst}})
					}
				}
				buf = n.Step(buf[:0])
				check := func(p *parcel) {
					if !p.routed {
						return
					}
					checked++
					fresh := *p
					n.resegment(&fresh)
					if fresh.control != p.control || fresh.launch != p.launch {
						t.Fatalf("cycle %d: msg %d at owner %d is marked routed, but resegment builds a different route",
							c, p.msgID, p.owner)
					}
				}
				for i := range n.routers {
					for d := range n.routers[i].queues {
						for _, p := range n.routers[i].queues[d].items {
							check(p)
						}
					}
				}
				for _, rec := range n.pending {
					if rec.result == outcomeDropped {
						check(rec.p)
					}
				}
			}
			if n.Run().Drops == 0 || checked == 0 {
				t.Fatalf("load did not exercise the cache: %d drops, %d routed parcels checked", n.Run().Drops, checked)
			}
		})
	}
}
