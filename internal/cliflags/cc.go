package cliflags

import (
	"flag"

	"phastlane/internal/cc"
)

// CC is the shared congestion-control flag block: -cc arms the
// per-sender AIMD governor on the injection path, and the -cc-* knobs
// override the cc.DefaultConfig tuning. Zero-valued knobs keep the
// defaults, so "-cc" alone runs the studied configuration.
type CC struct {
	Enabled bool
	Rate    float64
	Min     float64
	Max     float64
	Beta    float64
	Gain    float64
	Every   int
	Depth   float64
}

// RegisterCC registers the congestion-control block on fs and returns
// the destination.
func RegisterCC(fs *flag.FlagSet) *CC {
	c := &CC{}
	fs.BoolVar(&c.Enabled, "cc", false,
		"govern injection with per-sender delay-gradient AIMD congestion control")
	fs.Float64Var(&c.Rate, "cc-rate", 0,
		"cc: initial admitted rate in packets/node/cycle (0 = default)")
	fs.Float64Var(&c.Min, "cc-min", 0,
		"cc: floor on the admitted rate (0 = default)")
	fs.Float64Var(&c.Max, "cc-max", 0,
		"cc: cap on the admitted rate (0 = default)")
	fs.Float64Var(&c.Beta, "cc-beta", 0,
		"cc: multiplicative decrease factor (0 = default)")
	fs.Float64Var(&c.Gain, "cc-gain", 0,
		"cc: additive increase per update window (0 = default)")
	fs.IntVar(&c.Every, "cc-every", 0,
		"cc: controller update period in cycles (0 = default)")
	fs.Float64Var(&c.Depth, "cc-depth", 0,
		"cc: token-bucket burst depth in packets (0 = default)")
	return c
}

// Config materialises the block over cc.DefaultConfig with the given
// governor seed. Every non-zero knob applies, so a NaN or negative value
// reaches cc.Config.Validate instead of silently keeping the default.
func (c *CC) Config(seed int64) cc.Config {
	cfg := cc.DefaultConfig()
	cfg.Seed = seed
	if c.Rate != 0 {
		cfg.InitRate = c.Rate
	}
	if c.Min != 0 {
		cfg.MinRate = c.Min
	}
	if c.Max != 0 {
		cfg.MaxRate = c.Max
	}
	if c.Beta != 0 {
		cfg.Beta = c.Beta
	}
	if c.Gain != 0 {
		cfg.Gain = c.Gain
	}
	if c.Every != 0 {
		cfg.UpdateEvery = c.Every
	}
	if c.Depth != 0 {
		cfg.BucketDepth = c.Depth
	}
	return cfg
}

// Governor builds the governor for a nodes-sender run, or nil when the
// block is disabled (the zero-cost path). It returns the validation
// error instead of panicking so cmds can fail uniformly.
func (c *CC) Governor(nodes int, seed int64) (*cc.Governor, error) {
	if !c.Enabled {
		return nil, nil
	}
	cfg := c.Config(seed)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return cc.New(cfg, nodes), nil
}
