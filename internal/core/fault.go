package core

// Fault handling and the NIC-level delivery layer. Everything here is
// inert unless a fault plan is armed or a delivery limit (RetryLimit,
// LossTimeout) is configured: the hot paths in network.go and walk.go
// guard each consultation behind a nil-injector check, so the fault-free
// simulation stays bit-identical and allocation-free.

import (
	"phastlane/internal/fault"
	"phastlane/internal/mesh"
	"phastlane/internal/obs"
	"phastlane/internal/packet"
	"phastlane/internal/sim"
)

const (
	// unreachableProbe is how long a parcel whose destination has no
	// usable route waits before probing again; transient faults may have
	// healed by then.
	unreachableProbe = 8
	// watchdogDefaultPeriod is the delivery watchdog's scan interval when
	// no LossTimeout bounds it more tightly.
	watchdogDefaultPeriod = 64
	// starveDefault is the starvation-report threshold (cycles buffered
	// without delivery) when no LossTimeout is configured.
	starveDefault = 4096
)

// faultInit arms the configured fault plan and delivery watchdog; called
// once from New. Panics on an invalid plan (New's contract for bad
// configuration).
func (n *Network) faultInit() {
	inj, err := n.cfg.Faults.Arm(n.m)
	if err != nil {
		panic(err)
	}
	n.faults = inj
	if inj != nil {
		// Fault detours come from the topology's FaultRouting view
		// (the mesh BFS router behind topo.Mesh2D).
		// One closure for the life of the network: reads the advancing
		// cycle through the receiver, so route queries always see the
		// current fault state without a per-query allocation.
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
// synchronously whenever the delivery layer abandons a parcel. Nil
// disables reporting (losses are still counted in Run().Lost).
func (n *Network) SetLossHandler(handler func(sim.Loss)) { n.lossHandler = handler }

var _ sim.LossReporting = (*Network)(nil)

// SetNackHandler implements sim.CongestionReporting: handler is invoked
// synchronously with the original sender whenever a drop notice returns
// to a parcel's owner (once per drop, before any retry-budget loss). Nil
// disables reporting — the default, costing one branch per drop.
func (n *Network) SetNackHandler(handler func(src mesh.NodeID)) { n.nackHandler = handler }

var _ sim.CongestionReporting = (*Network)(nil)

// faultPrepare rebuilds the parcel's route from its owner around the
// currently-dead hardware, replacing resegment when a plan is armed. It
// reports whether the parcel can launch this cycle; when it cannot
// (destination unreachable, or a multicast segment blocked) the parcel is
// left queued with a probe delay so it retries after transient faults may
// have healed.
func (n *Network) faultPrepare(p *parcel) bool {
	if p.multicast {
		// Multicast sweeps cannot detour (the taps pin the path), so
		// rebuild the dimension-order sweep and hold the parcel while
		// its first segment crosses dead hardware.
		ctl, launch := n.buildSweepFrom(p.owner, p.remaining, n.cfg.MaxHops)
		at := p.owner
		for i, d := range n.sweepDirs {
			if i >= n.cfg.MaxHops {
				break
			}
			if n.faults.LinkDown(n.cycle, at, d) {
				n.holdUnreachable(p)
				return false
			}
			next, ok := n.m.Neighbor(at, d)
			if !ok {
				panic("core: multicast fault probe walks off mesh")
			}
			at = next
		}
		p.control, p.launch = ctl, launch
		return true
	}
	dirs, ok := n.det.AppendDetour(n.frDirs[:0], p.owner, p.dst, n.routeUsable)
	n.frDirs = dirs
	if !ok {
		n.holdUnreachable(p)
		return false
	}
	ctl, launch := packet.ControlFromDirs(dirs)
	ctl.MarkInterims(n.cfg.MaxHops)
	p.control, p.launch = ctl, launch
	return true
}

// holdUnreachable records a failed route probe and delays the parcel's
// next attempt. The parcel is not abandoned here — transient faults heal,
// and the loss timeout (when configured) bounds how long it waits.
func (n *Network) holdUnreachable(p *parcel) {
	n.run.Unreachable++
	n.emit(obs.KindUnreachable, p.msgID, p.owner, mesh.Local)
	p.eligibleAt = n.cycle + unreachableProbe
}

// loseParcel abandons a parcel: its outstanding deliveries are reported
// lost to the handler (so harnesses do not wait for them forever) and the
// parcel returns to the free list. The caller removes it from whatever
// queue held it.
func (n *Network) loseParcel(p *parcel, reason sim.LossReason) {
	count := 1
	if p.multicast {
		count = len(p.remaining)
	}
	n.live--
	if count > 0 {
		n.run.Lost += int64(count)
		n.emit(obs.KindLost, p.msgID, p.owner, mesh.Local)
		if n.lossHandler != nil {
			n.lossHandler(sim.Loss{MsgID: p.msgID, Node: p.owner, Count: count, Reason: reason})
		}
	}
	n.putParcel(p)
}

// faultStep runs once per cycle when the watchdog is armed: it surfaces
// fault activation/heal boundaries as observability events and
// periodically scans the buffers for timed-out or starving parcels.
func (n *Network) faultStep() {
	if n.faults.Pending(n.cycle) {
		n.faults.Step(n.cycle, n.emitTransition)
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

// watchdogScan is the livelock/starvation watchdog: it walks every
// electrical buffer, abandons parcels older than LossTimeout, and reports
// parcels that crossed the starvation threshold since the last scan. It
// runs every watchEvery cycles, off the per-cycle hot path.
func (n *Network) watchdogScan() {
	for node := range n.routers {
		r := &n.routers[node]
		for d := 0; d < mesh.NumDirs; d++ {
			q := &r.queues[d]
			if len(q.items) == 0 {
				continue
			}
			w := 0
			for _, p := range q.items {
				age := n.cycle - p.born
				if n.cfg.LossTimeout > 0 && age >= n.cfg.LossTimeout {
					n.loseParcel(p, sim.LossTimeout)
					continue
				}
				if age >= n.starveAfter && age-n.watchEvery < n.starveAfter {
					// First scan past the threshold only, so a
					// starving parcel is reported once.
					n.emit(obs.KindStarve, p.msgID, p.owner, p.launch)
				}
				q.items[w] = p
				w++
			}
			for i := w; i < len(q.items); i++ {
				q.items[i] = nil
			}
			q.items = q.items[:w]
			if w == 0 {
				r.occ &^= 1 << d
			}
		}
	}
}
