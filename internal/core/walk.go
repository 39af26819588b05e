package core

import (
	"fmt"

	"phastlane/internal/fault"
	"phastlane/internal/mesh"
	"phastlane/internal/obs"
	"phastlane/internal/packet"
	"phastlane/internal/sim"
)

// flight is one transmission attempt during the current cycle: a parcel
// moving through the optical mesh, covering up to MaxHops links before it
// is accepted, buffered, or dropped. Flights are pooled on the network
// (flightFree) and live for exactly one Step.
type flight struct {
	p   *parcel
	rec int // index into Network.pending
	// at is the router the flight last departed (before move) or
	// arrived at (after move); travel is the direction of the link
	// being crossed.
	at     mesh.NodeID
	travel mesh.Dir
	// control is the in-flight route state; it is written back to the
	// parcel only if the flight ends in a buffer.
	control packet.Control
	hops    int
	next    mesh.Dir // requested outgoing direction after arrival
	key     uint8    // contention priority of the request for next
}

// walk advances all launched flights through the mesh in lockstep hop
// steps, resolving link contention with the paper's fixed priority:
// earlier claims win (packets already in the switch), then straight-through
// beats turns, then input-port order N, E, S, W. Deliveries are appended
// to buf; the wavefront and contender lists live in network scratch
// (walkActive, walkCont) so the loop does not allocate.
func (n *Network) walk(flights []*flight, buf []sim.Delivery) []sim.Delivery {
	// With RoundRobinTurns the straight-over-turn rule is dropped and
	// the favoured input port rotates each cycle (the paper's
	// footnote-3 alternative).
	rrTurns := n.cfg.RoundRobinTurns
	rotate := 0
	if rrTurns {
		rotate = int(n.cycle) % mesh.NumLinkDirs
	}
	active := append(n.walkActive[:0], flights...)
	contenders := n.walkCont
	for len(active) > 0 {
		contenders = contenders[:0]
		for _, f := range active {
			next, ok := n.m.Neighbor(f.at, f.travel)
			if !ok {
				panic(fmt.Sprintf("core: flight walks off mesh at %d going %s", f.at, f.travel))
			}
			f.at = next
			f.hops++
			n.run.LinkTraversals++
			g := f.control.Shift()
			if g == 0 {
				panic(fmt.Sprintf("core: flight of msg %d ran out of control groups at %d", f.p.msgID, f.at))
			}
			if n.faults != nil {
				if eff := n.faults.Corrupt(n.cycle, f.at, f.p.msgID); eff != fault.EffectNone {
					// Resonator drift garbled the control group at
					// this router. A detected error drops the
					// packet; a misroute captures it here so the
					// owner re-routes. Sweeps (whose taps pin the
					// path) and packets already at their final
					// stop can only drop.
					n.run.Corrupt++
					n.emit(obs.KindCorrupt, f.p.msgID, f.at, f.travel)
					if eff == fault.EffectMisroute && !f.p.multicast && f.at != f.p.dst {
						n.receiveOrDrop(f, f.travel)
					} else {
						n.dropFlight(f)
					}
					continue
				}
			}
			// Multicast tap: a portion of the packet's power is
			// received for the local node while the packet
			// continues; this happens at the input port, before
			// any output contention, so it survives subsequent
			// blocking or dropping.
			if g&packet.Multicast != 0 && len(f.p.remaining) > 0 && f.p.remaining[0] == f.at {
				f.p.remaining = f.p.remaining[1:]
				f.p.routed = false
				buf = append(buf, sim.Delivery{MsgID: f.p.msgID, Dst: f.at})
				n.run.ElectricalEnergyPJ += n.energy.ReceivePJ
				n.emit(EventTap, f.p.msgID, f.at, mesh.Local)
			}
			switch {
			case g&packet.Local != 0 && !g.Transit():
				// Final stop: eject to the local node.
				if !f.p.multicast {
					buf = append(buf, sim.Delivery{MsgID: f.p.msgID, Dst: f.at})
					n.run.ElectricalEnergyPJ += n.energy.ReceivePJ
				}
				n.emit(EventEject, f.p.msgID, f.at, mesh.Local)
				n.finish(f)
			case g&packet.Local != 0:
				// Interim node: receive, buffer, relaunch later
				// toward the group's direction bits.
				n.receiveOrDrop(f, packet.DirAfterTurn(f.travel, g))
			default:
				if f.hops >= n.cfg.MaxHops {
					panic(fmt.Sprintf("core: msg %d transits beyond the %d-hop cycle budget", f.p.msgID, n.cfg.MaxHops))
				}
				f.next = packet.DirAfterTurn(f.travel, g)
				contenders = append(contenders, f)
			}
		}
		// Resolve output-link contention in priority order; a link
		// claimed in an earlier step (or by a launch) blocks all
		// later requests outright. The wavefront has been read, so
		// the ordered contenders go into it, and the survivors are
		// compacted in place as the next wavefront.
		active = active[:len(contenders)]
		contentionOrder(active, contenders, rrTurns, rotate)
		live := active[:0]
		for _, f := range active {
			if n.claimed(f.at, f.next) ||
				(n.faults != nil && n.faults.LinkDown(n.cycle, f.at, f.next)) {
				n.receiveOrDrop(f, f.next)
				continue
			}
			n.claim(f.at, f.next)
			n.emit(EventPass, f.p.msgID, f.at, f.next)
			f.travel = f.next
			live = append(live, f)
		}
		active = live
	}
	n.walkActive, n.walkCont = active, contenders
	return buf
}

// numKeys counts the contention priority keys: the four input ports,
// twice when turns yield to straight-through traffic.
const numKeys = 2 * mesh.NumLinkDirs

// contentionOrder writes the contenders src into dst, which has src's
// length and does not overlap it, in the order they claim output links:
// ascending priority key, ties in src order. A flight's key is its input
// port in N, E, S, W order, rotated when RoundRobinTurns is on, plus
// NumLinkDirs when it turns and turns yield to straight-through traffic
// (RoundRobinTurns off). It is a stable counting sort: one pass counts the
// keys, their prefix sums place each key's run, and a second pass scatters.
func contentionOrder(dst, src []*flight, rrTurns bool, rotate int) {
	var at [numKeys]int
	for _, f := range src {
		k := (int(f.travel.Opposite()) + rotate) % mesh.NumLinkDirs
		if !rrTurns && f.next != f.travel {
			k += mesh.NumLinkDirs
		}
		f.key = uint8(k)
		at[k]++
	}
	sum := 0
	for k, c := range at {
		at[k], sum = sum, sum+c
	}
	for _, f := range src {
		dst[at[f.key]] = f
		at[f.key]++
	}
}

// finish marks a flight's transmission delivered and retires the parcel;
// the free list reclaims it at the next drop-window resolution.
func (n *Network) finish(f *flight) {
	n.pending[f.rec].result = outcomeRetired
	n.live--
}

// receiveOrDrop captures a blocked (or interim-accepted) flight into the
// input-port buffer it arrived on, transferring delivery responsibility to
// this router - or drops the packet when the buffer is full, sending the
// drop signal back along the return path to the current owner.
func (n *Network) receiveOrDrop(f *flight, relaunch mesh.Dir) {
	port := f.travel.Opposite()
	r := &n.routers[f.at]
	free := r.queues[port].free()
	if n.faults != nil {
		if free -= n.faults.LostSlots(n.cycle, f.at, port); free < 0 {
			free = 0
		}
	}
	if free > 0 {
		p := f.p
		p.owner = f.at
		p.control = f.control
		p.launch = relaunch
		p.routed = false
		p.eligibleAt = n.cycle + 1
		p.enqueuedAt = n.cycle
		r.push(port, p)
		n.active.Add(f.at)
		n.pending[f.rec].result = outcomeSafe
		n.run.BufferedPackets++
		n.run.ElectricalEnergyPJ += n.energy.ReceivePJ + n.energy.BufferWritePJ
		n.emit(EventBuffer, p.msgID, f.at, relaunch)
		return
	}
	n.dropFlight(f)
}

// dropFlight drops a flight's packet at its current router. The router
// transmits Packet Dropped plus its node ID on the return path; the owner
// requeues with backoff at the start of the next cycle
// (resolveDropWindow). Multicast parcels whose deliveries all completed
// need no retransmission.
func (n *Network) dropFlight(f *flight) {
	n.run.Drops++
	n.run.ElectricalEnergyPJ += n.energy.DropNoticePJ
	n.emit(EventDrop, f.p.msgID, f.at, f.travel)
	if f.p.multicast && len(f.p.remaining) == 0 {
		n.pending[f.rec].result = outcomeComplete
		n.live--
		return
	}
	n.pending[f.rec].result = outcomeDropped
}
