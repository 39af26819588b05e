package sim

import (
	"fmt"

	"phastlane/internal/mesh"
	"phastlane/internal/packet"
	"phastlane/internal/stats"
	"phastlane/internal/trace"
)

// RunTraceRescan exports the reference replay loop to the external tests.
var RunTraceRescan = runTraceRescan

// runTraceRescan is the replay loop RunTrace's ready heap replaced, kept
// verbatim as the differential reference: every cycle it rescans every
// message not yet injected, in ID order. RunTrace must return the same
// Result and make the same NICFree and Inject calls in the same order.
func runTraceRescan(net Network, tr *trace.Trace, cfg ReplayConfig) (Result, error) {
	if err := tr.Validate(); err != nil {
		return Result{}, err
	}
	if tr.Nodes != net.Nodes() {
		return Result{}, fmt.Errorf("sim: trace has %d nodes, network %d", tr.Nodes, net.Nodes())
	}
	limit := cfg.Limit
	if limit == 0 {
		limit = 20_000_000
	}
	// readyAt[id] is the cycle message id may inject; -1 = dependency
	// not yet delivered. firstDep/nextDep hold the child adjacency as
	// intrusive linked lists over the (dense, 1-based) message IDs — no
	// per-ID slice or map entry.
	readyAt := make([]int64, len(tr.Messages)+1)
	firstDep := make([]uint64, len(tr.Messages)+1)
	nextDep := make([]uint64, len(tr.Messages)+1)
	pending := make([]uint64, 0, len(tr.Messages)) // ids not yet injected, in ID order
	for _, m := range tr.Messages {
		pending = append(pending, m.ID)
		if m.Dep == 0 {
			readyAt[m.ID] = m.EarliestCycle
		} else {
			readyAt[m.ID] = -1
		}
	}
	// Build the child lists back to front so each list reads in
	// ascending ID order, matching the append order of the old map.
	for i := len(tr.Messages) - 1; i >= 0; i-- {
		m := tr.Messages[i]
		if m.Dep != 0 {
			nextDep[m.ID] = firstDep[m.Dep]
			firstDep[m.Dep] = m.ID
		}
	}
	res := Result{LatencyByOp: make(map[packet.Op]*stats.Latency)}
	l := newLedger(net, &res, cfg.Obs, cfg.Telemetry, cfg.Prov, nil)
	// Replay IDs are dense from 1 but inject out of order.
	l.base, l.states = 1, make([]messageState, len(tr.Messages))
	// A completed message readies its children: think time from now,
	// never before EarliestCycle. A lost message resolves the same way —
	// its children proceed — but contributes no latency sample, so a
	// faulty replay degrades instead of deadlocking.
	l.done = func(id uint64, st *messageState, lat int64) {
		if !st.lost {
			res.Makespan = l.cycle + 1
			op := tr.Messages[id-1].Op
			ol, ok := res.LatencyByOp[op]
			if !ok {
				ol = &stats.Latency{}
				res.LatencyByOp[op] = ol
			}
			ol.Add(lat)
		}
		for dep := firstDep[id]; dep != 0; dep = nextDep[dep] {
			at := l.cycle + 1 + tr.Messages[dep-1].Think
			if e := tr.Messages[dep-1].EarliestCycle; e > at {
				at = e
			}
			readyAt[dep] = at
		}
	}
	// dsts is the injection scratch: one entry for unicasts, everyone
	// but the source for broadcasts. Inject does not retain it.
	dsts := make([]mesh.NodeID, 0, tr.Nodes)

	for len(pending) > 0 || l.inFlight > 0 {
		if l.cycle >= limit {
			res.Saturated = true
			break
		}
		// Inject every ready message whose NIC has room, in ID
		// order per source.
		rest := pending[:0]
		for _, id := range pending {
			m := tr.Messages[id-1]
			r := readyAt[id]
			if r < 0 || r > l.cycle || net.NICFree(m.Src) <= 0 {
				rest = append(rest, id)
				continue
			}
			dsts = dsts[:0]
			if m.IsBroadcast() {
				for n := 0; n < tr.Nodes; n++ {
					if mesh.NodeID(n) != m.Src {
						dsts = append(dsts, mesh.NodeID(n))
					}
				}
			} else {
				dsts = append(dsts, m.Dst)
			}
			// Latency is measured from readiness (dependency
			// resolved, think time elapsed), so time spent
			// stalled behind a full NIC counts against the
			// network.
			l.inject(Message{ID: id, Src: m.Src, Dsts: dsts, Op: m.Op}, r, true)
		}
		pending = rest
		l.step()
	}
	l.close()
	res.Run.Cycles = l.cycle
	return res, nil
}
