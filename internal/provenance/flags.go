package provenance

import "flag"

// DefaultTop is the default row cap of blame and slow-packet tables.
const DefaultTop = 10

// CLI is the shared command-line surface of the provenance layer,
// mirroring telemetry.CLI: cmd/inspect and cmd/sweep register it, and
// -why attaches provenance to their deep-dive runs.
type CLI struct {
	// Why is -why: attach provenance and print tail-blame reports.
	Why bool
	// Sample is -why-sample: the slowest-packet cohort size.
	Sample int
	// Top is -why-top: rows shown in blame and slow-packet tables.
	Top int
}

// RegisterFlags registers -why, -why-sample and -why-top on fs.
func RegisterFlags(fs *flag.FlagSet) *CLI {
	c := &CLI{}
	fs.BoolVar(&c.Why, "why", false,
		"attach per-packet latency provenance and print a tail-blame report per run")
	fs.IntVar(&c.Sample, "why-sample", DefaultK,
		"slowest-packet cohort size for the tail-blame report (<= 0 clamps to the default)")
	fs.IntVar(&c.Top, "why-top", DefaultTop,
		"rows shown in blame and slow-packet tables (<= 0 clamps to the default)")
	return c
}

// Clamp normalises out-of-range flag values instead of letting them
// silently misbehave downstream (a zero cohort would sample nothing, a
// negative one would panic the reservoir). Sample returns the clamped
// cohort size; commands call Clamp once after flag.Parse.
func (c *CLI) Clamp() {
	if c.Sample <= 0 {
		c.Sample = DefaultK
	}
	if c.Top <= 0 {
		c.Top = DefaultTop
	}
}
