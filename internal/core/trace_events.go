package core

import (
	"phastlane/internal/mesh"
	"phastlane/internal/obs"
)

// The event vocabulary lives in internal/obs so both the Phastlane
// simulator and the electrical baseline report through one set of kinds
// and one Event shape. The aliases below keep the original core names
// (EventLaunch, core.Event, ...) working for existing callers and tests.

// EventKind classifies a router-level event for tracing.
type EventKind = obs.Kind

// Event is one traced router action.
type Event = obs.Event

// Event kinds, in rough lifecycle order (see obs.Kind for the full,
// cross-network vocabulary).
const (
	// EventLaunch: a packet leaves a buffer (or the NIC) onto its first
	// link of the cycle.
	EventLaunch = obs.KindLaunch
	// EventPass: the packet transits a router toward another output.
	EventPass = obs.KindPass
	// EventTap: a multicast tap delivers a copy to the local node while
	// the packet continues.
	EventTap = obs.KindTap
	// EventEject: the packet leaves the network at its destination.
	EventEject = obs.KindEject
	// EventBuffer: the packet is captured into an input-port buffer
	// (blocked, or an interim stop).
	EventBuffer = obs.KindBuffer
	// EventDrop: the buffer was full; the drop signal returns to the
	// responsible sender.
	EventDrop = obs.KindDrop
	// EventRetry: the dropped packet re-enters its owner's queue after
	// backoff.
	EventRetry = obs.KindRetry
	// EventInject: the NIC accepted the message from the harness (once
	// per message; the gap to the first launch is the source-queue wait).
	EventInject = obs.KindInject
)

// SetTracer installs a callback invoked synchronously for every router
// event; nil disables tracing (the default — tracing costs nothing when
// off). Intended for debugging, for tests that assert event sequences,
// and for the obs.Collector observability bundle.
func (n *Network) SetTracer(f func(Event)) { n.tracer = f }

var _ obs.Traceable = (*Network)(nil)

// emit reports an event to the tracer, if any.
func (n *Network) emit(kind EventKind, msgID uint64, node mesh.NodeID, dir mesh.Dir) {
	if n.tracer != nil {
		n.tracer(Event{Cycle: n.cycle, Kind: kind, MsgID: msgID, Node: node, Dir: dir})
	}
}
