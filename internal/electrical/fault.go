package electrical

// Fault handling and the delivery watchdog for the electrical baseline.
// Everything here is inert unless a fault plan is armed or LossTimeout is
// configured; the hot paths guard each consultation behind a nil-injector
// check so the fault-free simulation stays bit-identical.
//
// The baseline's flow control is lossless, so its fault semantics differ
// from the optical network's drop/retry protocol: unicast packets
// re-route around dead hardware at each router; multicast packets follow
// pinned VCTM trees and stall on dead branches until the fault heals or
// the watchdog reclaims them; packets whose destination becomes
// unreachable are abandoned immediately (there is no retransmission
// protocol to hold them for).

import (
	"math/bits"

	"phastlane/internal/fault"
	"phastlane/internal/mesh"
	"phastlane/internal/obs"
	"phastlane/internal/sim"
	"phastlane/internal/vctm"
)

const (
	// watchdogDefaultPeriod is the watchdog scan interval when no
	// LossTimeout bounds it more tightly.
	watchdogDefaultPeriod = 64
	// starveDefault is the starvation-report threshold (cycles buffered
	// without progress) when no LossTimeout is configured.
	starveDefault = 4096
)

// faultInit arms the configured fault plan and delivery watchdog; called
// once from New. Panics on an invalid plan (New's contract).
func (n *Network) faultInit() {
	inj, err := n.cfg.Faults.Arm(n.m)
	if err != nil {
		panic(err)
	}
	n.faults = inj
	if inj != nil {
		n.routeUsable = func(from mesh.NodeID, d mesh.Dir) bool {
			return !n.faults.LinkDown(n.cycle, from, d)
		}
	}
	if inj != nil || n.cfg.LossTimeout > 0 {
		n.watchEvery = watchdogDefaultPeriod
		n.starveAfter = starveDefault
		if t := n.cfg.LossTimeout; t > 0 {
			n.starveAfter = t / 2
			if p := t / 4; p > 0 && p < n.watchEvery {
				n.watchEvery = p
			}
			if n.starveAfter < 1 {
				n.starveAfter = 1
			}
		}
	}
}

// SetLossHandler implements sim.LossReporting: handler is invoked
// synchronously whenever the delivery layer abandons deliveries. Nil
// disables reporting (losses are still counted in Run().Lost).
func (n *Network) SetLossHandler(handler func(sim.Loss)) { n.lossHandler = handler }

var _ sim.LossReporting = (*Network)(nil)

// SetNackHandler implements sim.CongestionReporting: handler is invoked
// synchronously with the stalled node whenever a NIC head cannot find a
// free local VC during the inject phase — the credit protocol's
// backpressure signal. Nil disables reporting (the default).
func (n *Network) SetNackHandler(handler func(src mesh.NodeID)) { n.nackHandler = handler }

var _ sim.CongestionReporting = (*Network)(nil)

// nextDir picks the next hop from at toward dst: dimension-order on a
// healthy mesh, the minimal fault-aware detour under an armed plan. ok is
// false when no usable route exists right now.
func (n *Network) nextDir(at, dst mesh.NodeID) (mesh.Dir, bool) {
	if n.faults == nil {
		return n.top.PortAt(at, dst, 0), true
	}
	dirs, ok := n.det.AppendDetour(n.frDirs[:0], at, dst, n.routeUsable)
	n.frDirs = dirs
	if !ok || len(dirs) == 0 {
		return 0, false
	}
	return dirs[0], true
}

// faultStep runs once per cycle when the watchdog is armed: it surfaces
// fault boundaries as observability events, re-routes packets stranded by
// newly-dead links, and periodically scans for timed-out packets.
func (n *Network) faultStep() {
	if n.faults.Pending(n.cycle) {
		n.faults.Step(n.cycle, n.emitTransition)
		// Fault state only changes at transition boundaries, so this
		// is the only moment existing routes can go stale.
		n.rerouteFaults()
	}
	if n.cycle >= n.nextScan {
		n.watchdogScan()
		n.nextScan = n.cycle + n.watchEvery
	}
}

// emitTransition reports one fault boundary through the tracer.
func (n *Network) emitTransition(tr fault.Transition) {
	n.emit(obs.KindFault, 0, tr.Node, tr.Dir)
}

// rerouteFaults re-resolves the route of every unicast VC still wanting
// a link dead as of this cycle. A VC that already holds a downstream VC
// keeps it (the switch allocator skips it while the link is dead);
// multicast replications are pinned to their tree.
func (n *Network) rerouteFaults() {
	for node := range n.routers {
		at := mesh.NodeID(node)
		r := &n.routers[node]
		for occ := r.occupied; occ != 0; occ &= occ - 1 {
			vc := &r.vcs[bits.TrailingZeros64(occ)]
			d := mesh.Dir(bits.TrailingZeros8(vc.dirs))
			if vc.pkt.tree != nil || vc.dirs == 0 || r.want[d]>>vc.bit&1 == 0 ||
				!n.faults.LinkDown(n.cycle, at, d) {
				continue
			}
			if nd, ok := n.nextDir(at, vc.pkt.dst); ok {
				r.want[d] &^= 1 << vc.bit
				r.want[nd] |= 1 << vc.bit
				vc.dirs = 1 << nd
			} else {
				n.losePacket(vc, at, sim.LossUnreachable)
			}
		}
	}
}

// reapStranded abandons a freshly-filled VC left with no pending work
// because its unicast destination is unreachable under the current fault
// set. Called from the two fill sites only when a plan is armed.
func (n *Network) reapStranded(vc *vcState, at mesh.NodeID) {
	if vc.deliver || vc.dirs != 0 {
		return
	}
	n.losePacket(vc, at, sim.LossUnreachable)
}

// losePacket abandons the packet replica occupying vc: its outstanding
// deliveries (the local ejection plus every destination in the subtrees
// of its pending replications) are reported lost, downstream VC
// reservations are released to their routers' free masks, and the VC
// frees.
func (n *Network) losePacket(vc *vcState, at mesh.NodeID, reason sim.LossReason) {
	r := &n.routers[at]
	t := vc.pkt.tree
	count := 1
	if t != nil && !vc.deliver {
		count = 0
	}
	for ds := vc.dirs; ds != 0; ds &= ds - 1 {
		d := mesh.Dir(bits.TrailingZeros8(ds))
		next := n.branchTarget(at, d)
		if t != nil {
			count += n.subtreeDeliveries(t, next)
		}
		if r.held[d]>>vc.bit&1 == 1 {
			b := int(d.Opposite())*n.cfg.VCs + int(vc.outVC[d])
			n.routers[next].vcs[b].reserved = false
			n.routers[next].free |= 1 << b
		}
		r.want[d] &^= 1 << vc.bit
		r.held[d] &^= 1 << vc.bit
	}
	n.reportLoss(vc.pkt.msgID, at, count, reason)
	vc.deliver = false
	vc.dirs = 0
	n.freeIfDone(at, vc)
}

// branchTarget resolves the neighbor a branch points at.
func (n *Network) branchTarget(at mesh.NodeID, d mesh.Dir) mesh.NodeID {
	next, ok := n.m.Neighbor(at, d)
	if !ok {
		panic("electrical: branch points off the mesh edge")
	}
	return next
}

// subtreeDeliveries counts the delivery targets of the multicast subtree
// rooted at node.
func (n *Network) subtreeDeliveries(t *vctm.Tree, node mesh.NodeID) int {
	c := 0
	if t.Deliver(node) {
		c++
	}
	for _, d := range t.Children(node) {
		c += n.subtreeDeliveries(t, n.branchTarget(node, d))
	}
	return c
}

// reportLoss accounts abandoned deliveries and tells the loss handler.
func (n *Network) reportLoss(msgID uint64, at mesh.NodeID, count int, reason sim.LossReason) {
	if count <= 0 {
		return
	}
	n.run.Lost += int64(count)
	n.emit(obs.KindLost, msgID, at, mesh.Local)
	if n.lossHandler != nil {
		n.lossHandler(sim.Loss{MsgID: msgID, Node: at, Count: count, Reason: reason})
	}
}

// watchdogScan is the livelock/starvation watchdog: it abandons NIC
// entries and VC occupants older than LossTimeout and reports packets
// that crossed the starvation threshold since the last scan.
func (n *Network) watchdogScan() {
	for node := range n.routers {
		at := mesh.NodeID(node)
		r := &n.routers[node]
		if n.cfg.LossTimeout > 0 && len(r.nic) > 0 {
			w := 0
			for _, p := range r.nic {
				if n.cycle-p.born >= n.cfg.LossTimeout {
					count := 1
					if p.tree != nil {
						count = n.subtreeDeliveries(p.tree, at)
					}
					n.reportLoss(p.msgID, at, count, sim.LossTimeout)
					n.dropRef(p)
					continue
				}
				r.nic[w] = p
				w++
			}
			for i := w; i < len(r.nic); i++ {
				r.nic[i] = nil
			}
			r.nic = r.nic[:w]
		}
		for i := range r.vcs {
			vc := &r.vcs[i]
			if vc.empty() {
				continue
			}
			age := n.cycle - vc.pkt.born
			if n.cfg.LossTimeout > 0 && age >= n.cfg.LossTimeout {
				n.losePacket(vc, at, sim.LossTimeout)
				continue
			}
			if age >= n.starveAfter && age-n.watchEvery < n.starveAfter {
				n.emit(obs.KindStarve, vc.pkt.msgID, at, mesh.Dir(i/n.cfg.VCs))
			}
		}
	}
}
