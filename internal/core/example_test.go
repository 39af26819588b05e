package core_test

import (
	"fmt"

	"phastlane/internal/core"
	"phastlane/internal/mesh"
	"phastlane/internal/packet"
	"phastlane/internal/sim"
)

// ExampleNetwork shows the minimal life of a packet: inject a unicast
// message and step the clock until delivery. Each drain is capped, so a
// parcel the network strands fails the output check rather than
// spinning until the test timeout.
func ExampleNetwork() {
	net := core.New(core.DefaultConfig())
	net.Inject(sim.Message{ID: 1, Src: 0, Dsts: []mesh.NodeID{4}, Op: packet.OpSynthetic})
	for cycle := 0; cycle < 300 && !net.Quiescent(); cycle++ {
		for _, d := range net.Step(nil) {
			fmt.Printf("msg %d delivered to node %d\n", d.MsgID, d.Dst)
		}
	}
	// Output:
	// msg 1 delivered to node 4
}

// ExampleNetwork_broadcast decomposes a broadcast into multicast column
// sweeps that deliver to every node.
func ExampleNetwork_broadcast() {
	net := core.New(core.DefaultConfig())
	var everyone []mesh.NodeID
	for n := mesh.NodeID(1); n < 64; n++ {
		everyone = append(everyone, n)
	}
	net.Inject(sim.Message{ID: 7, Src: 0, Dsts: everyone, Op: packet.OpReadReq})
	served := 0
	for cycle := 0; cycle < 300 && !net.Quiescent(); cycle++ {
		served += len(net.Step(nil))
	}
	fmt.Printf("broadcast served %d nodes\n", served)
	// Output:
	// broadcast served 63 nodes
}
