// Package cliflags consolidates the command-line blocks the cmds used
// to copy-paste: the topology/geometry flags (-topo, -width, -height,
// -arity) behind one fabric builder, the mesh network-model flags
// (-hops, -buffers, -delay) with their unused-flag check, the shared
// -seed flag, the plain -telemetry-addr endpoint flag, the -faults
// argument parser, the injection-rate and count checks, and the uniform
// error exit. The single-run cmd (phastlane) registers the full
// telemetry.CLI bundle (flight recorder, phase sampling) on top of
// these; reproduce and tracegen take just the endpoint address.
package cliflags

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"phastlane/internal/fabsim"
	"phastlane/internal/fault"
	"phastlane/internal/topo"
)

// Geometry is the shared fabric-selection flag block. The mesh reads
// -width x -height directly; the indirect fabrics (benes, shufflecast)
// take width*height as their endpoint count, so "-topo benes -width 8
// -height 1" is an 8-endpoint Benes and per-node matrices stay shaped
// width x height on every fabric.
type Geometry struct {
	Topo          string
	Width, Height int
	Arity         int
}

// RegisterGeometry registers the topology/geometry block on fs
// (flag.CommandLine for commands) and returns the destination.
func RegisterGeometry(fs *flag.FlagSet) *Geometry {
	g := &Geometry{}
	fs.StringVar(&g.Topo, "topo", "mesh",
		"fabric: "+strings.Join(topo.Names(), ", "))
	fs.IntVar(&g.Width, "width", 8,
		"mesh width; indirect fabrics use width*height endpoints")
	fs.IntVar(&g.Height, "height", 8, "mesh height")
	fs.IntVar(&g.Arity, "arity", 2,
		"shufflecast radix (ignored by other fabrics)")
	return g
}

// build constructs the selected topology.
func (g *Geometry) build() (topo.Topology, error) {
	return topo.New(g.Topo, g.Width, g.Height, g.Arity)
}

// Endpoints is the endpoint count the geometry implies on every fabric.
func (g *Geometry) Endpoints() int { return g.Width * g.Height }

// IsMesh reports whether the 2D-mesh-specific simulators (core,
// electrical) apply; the indirect fabrics run on fabsim instead.
func (g *Geometry) IsMesh() bool { return g.Topo == "" || g.Topo == "mesh" }

// RequireMesh errors when a mesh-only feature is combined with an
// indirect fabric, naming the feature in the message.
func (g *Geometry) RequireMesh(feature string) error {
	if g.IsMesh() {
		return nil
	}
	return fmt.Errorf("%s requires -topo mesh (got %q)", feature, g.Topo)
}

// FabricNetwork builds the generic store-and-forward simulator over the
// selected fabric — the execution substrate the cmds use for non-mesh
// topologies. routerDelay 0 keeps the fabsim default; lossTimeout > 0
// arms fabsim's delivery watchdog, honouring the shared -loss-timeout
// flag on fabric runs exactly as the mesh simulators do. A config that
// fabsim rejects, such as a negative loss timeout, is returned as its
// validation error.
func (g *Geometry) FabricNetwork(routerDelay int, lossTimeout int64, seed int64) (*fabsim.Network, error) {
	t, err := g.build()
	if err != nil {
		return nil, err
	}
	cfg := fabsim.DefaultConfig(t)
	if routerDelay != 0 {
		cfg.RouterDelay = routerDelay
	}
	cfg.LossTimeout = lossTimeout
	cfg.Seed = seed
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return fabsim.New(cfg), nil
}

// Seed registers the shared -seed flag.
func Seed(fs *flag.FlagSet) *int64 { return fs.Int64("seed", 1, "random seed") }

// TelemetryAddr registers the endpoint-only telemetry flag the study
// cmds use with telemetry.Start; single-run cmds register the full
// telemetry.CLI bundle instead.
func TelemetryAddr(fs *flag.FlagSet) *string {
	return fs.String("telemetry-addr", "",
		"serve live telemetry (Prometheus /metrics, /telemetry.json, /debug/pprof/) on this address; empty = off")
}

// ParseFaultArg turns a -faults argument into a plan: @path loads a
// file, a leading '{' parses as JSON, anything else as the compact
// spec string.
func ParseFaultArg(arg string) (*fault.Plan, error) {
	text := arg
	if strings.HasPrefix(arg, "@") {
		data, err := os.ReadFile(arg[1:])
		if err != nil {
			return nil, err
		}
		text = string(data)
	}
	if strings.HasPrefix(strings.TrimSpace(text), "{") {
		return fault.ParseJSON([]byte(text))
	}
	return fault.ParseSpec(strings.TrimSpace(text))
}

// Rates exits through Fail unless every one of rates, read from the flag
// named flagName, is an injection rate: packets per node per cycle in
// [0, 1]. Commands check -rate and -rates with it after flag.Parse, so a
// bad value is an input error rather than traffic.NewInjector's panic.
func Rates(cmd, flagName string, rates ...float64) {
	if err := checkRates(flagName, rates); err != nil {
		Fail(cmd, err)
	}
}

// checkRates names the first of rates outside [0, 1]; NaN is outside.
func checkRates(flagName string, rates []float64) error {
	for _, r := range rates {
		if !(r >= 0 && r <= 1) {
			return fmt.Errorf("-%s %v is not an injection rate in [0, 1]", flagName, r)
		}
	}
	return nil
}

// Counts exits through Fail if any of the int or int64 flags named in
// names, as registered on fs, holds a negative value. Cycle, trial and
// message counts take 0 as "use the default"; a negative count is an
// input error, not another spelling of the default.
func Counts(cmd string, fs *flag.FlagSet, names ...string) {
	if err := checkCounts(fs, names); err != nil {
		Fail(cmd, err)
	}
}

// checkCounts names the first of the named int or int64 flags that is
// negative.
func checkCounts(fs *flag.FlagSet, names []string) error {
	for _, name := range names {
		var n int64
		switch v := fs.Lookup(name).Value.(flag.Getter).Get().(type) {
		case int:
			n = int64(v)
		default:
			n = v.(int64)
		}
		if n < 0 {
			return fmt.Errorf("-%s %d is negative", name, n)
		}
	}
	return nil
}

// Fail prints "cmd: err" to stderr and exits 1 — the uniform cmd error
// path.
func Fail(cmd string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", cmd, err)
	os.Exit(1)
}
