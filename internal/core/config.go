// Package core implements the cycle-accurate simulator of the Phastlane
// optical routing network (paper Section 2): an 8x8 grid of optical
// crossbar switches in which a packet carrying predecoded source-routing
// control bits traverses up to MaxHops links per 4 GHz cycle. Contention is
// resolved with fixed priority (straight-through beats turns, buffered
// packets beat new arrivals); losers are captured into small per-port
// electrical buffers, or dropped - triggering an optical drop-signal return
// path to the responsible sender, which backs off and retransmits.
// Journeys longer than MaxHops stop at interim nodes that buffer and
// relaunch; broadcasts decompose into up to 16 tap-and-continue multicast
// column sweeps.
package core

import (
	"fmt"

	"phastlane/internal/fault"
	"phastlane/internal/packet"
	"phastlane/internal/power"
)

// Arbiter names a buffered-packet relaunch arbitration policy.
type Arbiter int

// Relaunch arbiters. ArbRotating is the paper's scheme: a pointer rotates
// over the five queues each cycle. ArbOldestFirst serves the
// longest-waiting packet anywhere in the router; ArbLongestQueue drains the
// fullest buffer first (both Section 7 "future work" alternatives).
const (
	ArbRotating Arbiter = iota
	ArbOldestFirst
	ArbLongestQueue
	numArbiters
)

// String names the arbiter.
func (a Arbiter) String() string {
	switch a {
	case ArbRotating:
		return "rotating"
	case ArbOldestFirst:
		return "oldest-first"
	case ArbLongestQueue:
		return "longest-queue"
	default:
		return fmt.Sprintf("Arbiter(%d)", int(a))
	}
}

// Config parameterises a Phastlane network. DefaultConfig matches the
// paper's Table 1.
type Config struct {
	// Width, Height give the mesh radix (8x8 = 64 nodes).
	Width, Height int
	// MaxHops is the number of links a packet covers per cycle: 4, 5,
	// or 8 for pessimistic/average/optimistic device scaling (Fig. 6).
	MaxHops int
	// BufferEntries is the capacity of each of the five per-router
	// electrical buffers (four input ports + local). Negative means
	// unbounded (the paper's "Optical4IB").
	BufferEntries int
	// NICEntries is the network-interface injection queue size.
	NICEntries int
	// WDM is the payload wavelength count per waveguide.
	WDM int
	// CrossingEff is the per-waveguide-crossing power efficiency.
	CrossingEff float64
	// Bypass lets a buffering router re-segment the remaining route
	// from its own position (possibly skipping the original interim
	// nodes), as Section 2.1.3 allows.
	Bypass bool
	// BackoffBase and BackoffMax bound the randomised exponential
	// backoff before a dropped packet is retransmitted.
	BackoffBase, BackoffMax int
	// Arbiter selects the electrical-buffer relaunch policy; the
	// paper's Section 7 lists alternatives to the rotating scheme as
	// future work, and the ablation benchmark compares them.
	Arbiter Arbiter
	// RoundRobinTurns replaces the fixed straight-over-turn crossbar
	// priority with a rotating one. The paper's footnote 3 found no
	// performance advantage from this (it would also lengthen the
	// crossbar critical path); the ablation benchmark confirms it.
	RoundRobinTurns bool
	// UnicastBroadcast disables the multicast column sweeps and sends
	// broadcasts as 63 unicast packets - the ablation showing why
	// Section 2.1.4's multicast support matters.
	UnicastBroadcast bool
	// Faults, when non-nil and non-empty, arms the deterministic
	// fault-injection plan: dead links, stuck routers, buffer-slot
	// failures and control-bit corruption (package fault). Relaunches
	// then source-route around unusable hardware. Nil (or an empty
	// plan) costs nothing and leaves behaviour bit-identical.
	Faults *fault.Plan
	// RetryLimit caps drop-triggered retransmissions per packet; a
	// packet dropped past the limit is abandoned and reported lost
	// through the delivery layer. 0 retries forever (the paper's
	// protocol, which assumes perfect hardware).
	RetryLimit int
	// LossTimeout, when positive, is the delivery watchdog's loss
	// detector: a packet still undelivered that many cycles after
	// injection is abandoned and reported lost. 0 disables timeouts.
	LossTimeout int64
	// Seed drives the arbitration jitter and backoff randomness.
	Seed int64
}

// DefaultConfig returns the paper's baseline optical configuration
// (Table 1): an 8x8 mesh, 4 hops per cycle, 10-entry buffers, a 50-entry
// NIC, 64-way WDM, and 98% crossing efficiency.
func DefaultConfig() Config {
	return Config{
		Width: 8, Height: 8,
		MaxHops:       4,
		BufferEntries: 10,
		NICEntries:    50,
		WDM:           64,
		CrossingEff:   0.98,
		Bypass:        true,
		BackoffBase:   1,
		BackoffMax:    8,
		Seed:          1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Width < 2 || c.Height < 2 {
		return fmt.Errorf("core: mesh %dx%d too small", c.Width, c.Height)
	}
	if c.MaxHops < 1 {
		return fmt.Errorf("core: MaxHops %d", c.MaxHops)
	}
	if c.BufferEntries == 0 {
		return fmt.Errorf("core: zero BufferEntries would drop every blocked packet")
	}
	if c.NICEntries < 1 {
		return fmt.Errorf("core: NICEntries %d", c.NICEntries)
	}
	if c.WDM < 1 {
		return fmt.Errorf("core: WDM %d", c.WDM)
	}
	if c.CrossingEff <= 0 || c.CrossingEff > 1 {
		return fmt.Errorf("core: crossing efficiency %v", c.CrossingEff)
	}
	if c.BackoffBase < 1 || c.BackoffMax < c.BackoffBase {
		return fmt.Errorf("core: backoff range [%d,%d]", c.BackoffBase, c.BackoffMax)
	}
	if c.Arbiter < 0 || c.Arbiter >= numArbiters {
		return fmt.Errorf("core: unknown arbiter %d", c.Arbiter)
	}
	if c.RetryLimit < 0 {
		return fmt.Errorf("core: negative retry limit %d", c.RetryLimit)
	}
	if c.LossTimeout < 0 {
		return fmt.Errorf("core: negative loss timeout %d", c.LossTimeout)
	}
	if err := c.Faults.Validate(c.Width, c.Height); err != nil {
		return err
	}
	if diameter := c.Width + c.Height - 2; diameter > packet.MaxGroups && !c.Bypass {
		return fmt.Errorf("core: %dx%d mesh (diameter %d) exceeds the %d-group control format; meshes beyond 8x8 require Bypass so interim nodes rebuild truncated routes",
			c.Width, c.Height, diameter, packet.MaxGroups)
	}
	return nil
}

// energyModel derives the power model for this configuration.
func (c Config) energyModel() power.Optical {
	return power.NewOptical(c.WDM, c.MaxHops, c.CrossingEff)
}
