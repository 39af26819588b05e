package telemetry

import (
	"fmt"
	"sync"
)

// Trip records one tripped invariant.
type Trip struct {
	Cycle  int64
	Name   string
	Detail string
}

func (t Trip) String() string {
	return fmt.Sprintf("c%d %s: %s", t.Cycle, t.Name, t.Detail)
}

// Watchdog audits the simulation's conservation laws at flight-recorder
// flush boundaries (never per cycle). A tripped check is recorded,
// stamped into the flight record by the Run driving it, and — with
// Abort set — panics, turning silent corruption of a
// multi-billion-cycle run into an immediate, diagnosable stop.
//
// Checks: message conservation (delivered + lost + in-flight ==
// injected) and the network's own structural invariants (busy ⇒ in the
// active set, live-parcel accounting; see InvariantChecker).
type Watchdog struct {
	// Abort panics on the first trip when set.
	Abort bool

	mu    sync.Mutex
	trips []Trip
}

// trip records a failed check and applies the configured consequences.
func (w *Watchdog) trip(cycle int64, name, detail string) Trip {
	t := Trip{Cycle: cycle, Name: name, Detail: detail}
	w.mu.Lock()
	w.trips = append(w.trips, t)
	w.mu.Unlock()
	if w.Abort {
		panic("telemetry: watchdog abort: " + t.String())
	}
	return t
}

// Trips returns every trip recorded so far.
func (w *Watchdog) Trips() []Trip {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]Trip, len(w.trips))
	copy(out, w.trips)
	return out
}
