package telemetry

import (
	"flag"
	"fmt"
	"io"
)

// CLI is the command-line surface of the telemetry layer. The single-run
// command (phastlane) registers it with RegisterFlags and builds the
// full bundle with StartRun, while reproduce and tracegen call Start
// directly with just the address (endpoint and process metrics, no
// per-run counters).
type CLI struct {
	// Addr is -telemetry-addr: serve /metrics, /telemetry.json and
	// /debug/pprof/ on this address ("" = off, ":0" = any free port).
	Addr string
	// Flight is -flight-record: append the JSONL flight record here.
	Flight string
	// SampleEvery is -phase-sample: phase-timer sampling period.
	SampleEvery int
	// FlushEvery is -flight-every: cycles between flight-recorder
	// samples and watchdog audits.
	FlushEvery int64
	// Abort is -watchdog-abort: panic on the first tripped invariant.
	Abort bool
}

// RegisterFlags registers the telemetry flags on fs (flag.CommandLine
// for commands) and returns the destination.
func RegisterFlags(fs *flag.FlagSet) *CLI {
	c := &CLI{}
	fs.StringVar(&c.Addr, "telemetry-addr", "",
		"serve live telemetry (Prometheus /metrics, /telemetry.json, /debug/pprof/) on this address; empty = off")
	fs.StringVar(&c.Flight, "flight-record", "",
		"append a JSONL flight record of the run to this file; empty = off")
	fs.IntVar(&c.SampleEvery, "phase-sample", DefaultSampleEvery,
		"sample per-phase step timings every N cycles (1 = every cycle)")
	fs.Int64Var(&c.FlushEvery, "flight-every", DefaultFlushEvery,
		"cycles between flight-recorder samples and watchdog audits")
	fs.BoolVar(&c.Abort, "watchdog-abort", false,
		"abort the run on the first tripped invariant watchdog")
	return c
}

// Enabled reports whether any telemetry output was requested.
func (c *CLI) Enabled() bool { return c.Addr != "" || c.Flight != "" }

// Clamp normalises out-of-range flag values: a zero or negative
// -phase-sample would divide by zero in the phase timers (and a negative
// -flight-every would never flush), so both fall back to their defaults.
// StartRun calls it, so commands using the bundle get it for free.
func (c *CLI) Clamp() {
	if c.SampleEvery <= 0 {
		c.SampleEvery = DefaultSampleEvery
	}
	if c.FlushEvery <= 0 {
		c.FlushEvery = DefaultFlushEvery
	}
}

// StartRun builds the full telemetry bundle from the parsed flags and
// starts the HTTP endpoint when requested. It returns nil when no
// telemetry output was requested — the zero-cost default; callers pass
// the nil straight into RateConfig/ReplayConfig.Telemetry.
func (c *CLI) StartRun() (*Run, error) {
	if !c.Enabled() {
		return nil, nil
	}
	c.Clamp()
	opt := Options{
		SampleEvery: c.SampleEvery,
		FlushEvery:  c.FlushEvery,
		Watchdog:    &Watchdog{Abort: c.Abort},
	}
	if c.Flight != "" {
		rec, err := OpenRecorder(c.Flight)
		if err != nil {
			return nil, err
		}
		opt.Recorder = rec
	}
	run := NewRun(opt)
	if _, err := Start(c.Addr, run.Reg); err != nil {
		return nil, err
	}
	return run, nil
}

// Finish closes the run's flight recorder, prints the phase-attribution
// table to w when any cycles were sampled, and reports tripped
// watchdogs. Nil-safe, mirroring StartRun's nil return.
func (c *CLI) Finish(run *Run, w io.Writer) error {
	if run == nil {
		return nil
	}
	if s := run.Phases.Snapshot(); s.SampledCycles > 0 {
		fmt.Fprintf(w, "\nstep time attribution (sampled every %d cycles, %.0f%% attributed):\n%s",
			c.SampleEvery, s.AttributedFraction()*100, run.Phases.Table())
	}
	if trips := run.Watchdog.Trips(); len(trips) > 0 {
		fmt.Fprintf(w, "\nWATCHDOG: %d invariant trip(s):\n", len(trips))
		for _, tr := range trips {
			fmt.Fprintf(w, "  %s\n", tr)
		}
	}
	return run.Close()
}
