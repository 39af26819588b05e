package obs

// Collector bundles the optional observers of one run. Any field may be
// nil; a fully nil Collector (or a nil *Collector) observes nothing and
// costs nothing. The sim harness installs Tracer() on the network when it
// is non-nil and drives the Sampler once per cycle.
type Collector struct {
	// Metrics accumulates per-node counter matrices from the event
	// stream.
	Metrics *Metrics
	// Sampler records cycle-windowed time series (fed by the harness,
	// not the event stream).
	Sampler *Sampler
	// Trace receives every event, typically TraceFile.Tracer(pid).
	Trace func(Event)
}

// Tracer returns the event callback to install on a network: the fan-out
// over Metrics and Trace, or nil when neither is set so tracing stays
// completely off.
func (c *Collector) Tracer() func(Event) {
	if c == nil {
		return nil
	}
	switch {
	case c.Metrics != nil && c.Trace != nil:
		return func(e Event) {
			c.Metrics.Observe(e)
			c.Trace(e)
		}
	case c.Metrics != nil:
		return c.Metrics.Observe
	case c.Trace != nil:
		return c.Trace
	default:
		return nil
	}
}

// Tee composes two event callbacks into one, tolerating nils: with one
// side nil the other is returned directly (no wrapper cost), with both
// nil the result is nil so tracing stays completely off. The sim harness
// uses it to feed a provenance tracker next to a Collector's tracer.
func Tee(a, b func(Event)) func(Event) {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	}
	return func(e Event) {
		a(e)
		b(e)
	}
}
