package cliflags

import (
	"flag"
	"fmt"

	"phastlane/internal/core"
	"phastlane/internal/electrical"
)

// Nets is the flag block of the two mesh network models: -hops and
// -buffers configure the optical mesh, -delay the electrical network's
// per-hop router delay.
type Nets struct {
	Hops, Buffers, Delay int
}

// RegisterNets registers the network-model block on fs and returns the
// destination.
func RegisterNets(fs *flag.FlagSet) *Nets {
	n := &Nets{}
	fs.IntVar(&n.Hops, "hops", 4, "optical: max hops per cycle (4, 5, or 8)")
	fs.IntVar(&n.Buffers, "buffers", 10, "optical: electrical buffer entries per port (-1 = infinite)")
	fs.IntVar(&n.Delay, "delay", 3, "electrical: per-hop router delay in cycles (mesh: 2 or 3)")
	return n
}

// Optical returns the optical mesh config over g with the block's knobs.
func (n *Nets) Optical(g *Geometry, seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Width, cfg.Height = g.Width, g.Height
	cfg.MaxHops = n.Hops
	cfg.BufferEntries = n.Buffers
	cfg.Seed = seed
	return cfg
}

// Electrical returns the electrical mesh config over g with the block's
// router delay.
func (n *Nets) Electrical(g *Geometry, seed int64) electrical.Config {
	cfg := electrical.DefaultConfig()
	cfg.Width, cfg.Height = g.Width, g.Height
	cfg.RouterDelay = n.Delay
	cfg.Seed = seed
	return cfg
}

// Check returns an error naming the first flag set on fs that no network
// of the run reads. optical and electrical say whether the run has an
// optical mesh and an electrical network: -hops, -buffers and
// -retry-limit configure only the former, -delay only the latter.
func (n *Nets) Check(fs *flag.FlagSet, optical, electrical bool) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		switch {
		case err != nil:
		case !optical && (f.Name == "hops" || f.Name == "buffers" || f.Name == "retry-limit"):
			err = fmt.Errorf("-%s applies to the optical mesh only", f.Name)
		case !electrical && f.Name == "delay":
			err = fmt.Errorf("-delay applies to the electrical network only")
		}
	})
	return err
}
