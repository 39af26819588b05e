package cc

import (
	"math"
	"reflect"
	"testing"

	"phastlane/internal/mesh"
)

func nid(i int) mesh.NodeID { return mesh.NodeID(i) }

// quietCfg is a tuning with the controller effectively disabled (huge
// update period) so bucket mechanics can be observed in isolation.
func quietCfg(rate float64) Config {
	cfg := DefaultConfig()
	cfg.InitRate = rate
	cfg.UpdateEvery = 1 << 20
	return cfg
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	for name, mutate := range map[string]func(*Config){
		"zero init":      func(c *Config) { c.InitRate = 0 },
		"init above max": func(c *Config) { c.InitRate = c.MaxRate + 1 },
		"max above one":  func(c *Config) { c.MaxRate = 1.5 },
		"beta one":       func(c *Config) { c.Beta = 1 },
		"zero gain":      func(c *Config) { c.Gain = 0 },
		"zero period":    func(c *Config) { c.UpdateEvery = 0 },
		"shallow bucket": func(c *Config) { c.BucketDepth = 0.5 },
		"bad smoothing":  func(c *Config) { c.GradSmoothing = 1.5 },
		"bad thresholds": func(c *Config) { c.ThreshInit = c.ThreshMax + 1 },
		"inverted band":  func(c *Config) { c.NackLow = c.NackHigh },
		"zero samples":   func(c *Config) { c.MinSamples = 0 },
		"neg history":    func(c *Config) { c.HistoryEvery = -1 },
		"zero overuse":   func(c *Config) { c.OveruseWindows = 0 },
		"zero thresh k":  func(c *Config) { c.ThreshKUp = 0 },
		"min above max":  func(c *Config) { c.MinRate = c.MaxRate + 1 },
		// NaN fails every comparison, so each float field needs its own row.
		"NaN init":        func(c *Config) { c.InitRate = math.NaN() },
		"NaN min":         func(c *Config) { c.MinRate = math.NaN() },
		"NaN max":         func(c *Config) { c.MaxRate = math.NaN() },
		"NaN beta":        func(c *Config) { c.Beta = math.NaN() },
		"NaN gain":        func(c *Config) { c.Gain = math.NaN() },
		"NaN bucket":      func(c *Config) { c.BucketDepth = math.NaN() },
		"NaN smoothing":   func(c *Config) { c.GradSmoothing = math.NaN() },
		"NaN thresh init": func(c *Config) { c.ThreshInit = math.NaN() },
		"NaN thresh min":  func(c *Config) { c.ThreshMin = math.NaN() },
		"NaN thresh max":  func(c *Config) { c.ThreshMax = math.NaN() },
		"NaN thresh k up": func(c *Config) { c.ThreshKUp = math.NaN() },
		"NaN thresh k dn": func(c *Config) { c.ThreshKDown = math.NaN() },
		"NaN nack high":   func(c *Config) { c.NackHigh = math.NaN() },
		"NaN nack low":    func(c *Config) { c.NackLow = math.NaN() },
	} {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
	}
}

// TestTokenBucket checks the admission mechanics: one free packet at
// start, refill at the admitted rate, and the depth cap bounding the
// post-idle burst.
func TestTokenBucket(t *testing.T) {
	g := New(quietCfg(0.5), 1)
	if !g.Allow(0) {
		t.Fatal("first packet denied")
	}
	if g.Allow(0) {
		t.Fatal("second packet admitted with an empty bucket")
	}
	g.Tick(1) // tokens 0.5
	if g.Allow(0) {
		t.Fatal("admitted at half a token")
	}
	g.Tick(2) // tokens 1.0
	if !g.Allow(0) {
		t.Fatal("denied with a full token")
	}
	// An idle spell accumulates at most BucketDepth tokens.
	for c := int64(3); c < 100; c++ {
		g.Tick(c)
	}
	depth := int(g.Config().BucketDepth)
	for i := 0; i < depth; i++ {
		if !g.Allow(0) {
			t.Fatalf("burst packet %d denied after idle", i)
		}
	}
	if g.Allow(0) {
		t.Fatalf("burst exceeded bucket depth %d", depth)
	}
}

// runWindows drives one governor for n update windows, invoking feed
// before every tick to supply that cycle's signals.
func runWindows(g *Governor, n int, feed func(cycle int64)) {
	every := int64(g.Config().UpdateEvery)
	for c := int64(1); c <= int64(n)*every; c++ {
		if feed != nil {
			feed(c)
		}
		g.Tick(c)
	}
}

// TestIncreaseOnCleanWindows checks additive increase: constant latency
// (zero gradient) and a clean loss window grow the rate by Gain per
// window up to MaxRate.
func TestIncreaseOnCleanWindows(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UpdateEvery = 16
	g := New(cfg, 1)
	runWindows(g, 10, func(int64) { g.Ack(0, 10) })
	if g.State(0) != StateIncrease {
		t.Fatalf("state %v after clean windows, want increase", g.State(0))
	}
	if g.Rate(0) <= cfg.InitRate {
		t.Fatalf("rate %v did not grow from %v", g.Rate(0), cfg.InitRate)
	}
	// And the cap holds under unlimited growth.
	runWindows(g, 2000, func(int64) { g.Ack(0, 10) })
	if g.Rate(0) != cfg.MaxRate {
		t.Fatalf("rate %v after 2000 clean windows, want cap %v", g.Rate(0), cfg.MaxRate)
	}
}

// TestOveruseDecrease checks the delay-gradient path: steadily rising
// latency drives the filtered gradient over the adaptive threshold for
// OveruseWindows consecutive windows and forces multiplicative decrease.
func TestOveruseDecrease(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UpdateEvery = 16
	g := New(cfg, 1)
	// Mean latency climbs by 160 cycles per window — far past any
	// adapted threshold.
	runWindows(g, 12, func(c int64) { g.Ack(0, float64(10*c)) })
	if g.Rate(0) >= cfg.InitRate {
		t.Fatalf("rate %v never decreased from %v under rising latency",
			g.Rate(0), cfg.InitRate)
	}
	if grad := g.senders[0].grad; grad <= 0 {
		t.Fatalf("gradient %v not positive under rising latency", grad)
	}
}

// TestUnderuseHolds checks the drain phase: falling latency reads as
// underuse and the controller holds rather than increasing into a queue
// that is still emptying.
func TestUnderuseHolds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UpdateEvery = 16
	g := New(cfg, 1)
	runWindows(g, 12, func(c int64) { g.Ack(0, float64(10*(300-c))) })
	if g.State(0) != StateHold {
		t.Fatalf("state %v under falling latency, want hold", g.State(0))
	}
}

// TestNackBand checks the loss-ratio overlay: a window past NackHigh
// decreases even with a flat gradient, and a window inside the band
// holds.
func TestNackBand(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UpdateEvery = 16
	g := New(cfg, 1)
	runWindows(g, 4, func(int64) { g.Nack(0) }) // badFrac = 1
	if g.Rate(0) >= cfg.InitRate {
		t.Fatalf("rate %v never decreased from %v under pure nacks",
			g.Rate(0), cfg.InitRate)
	}

	// badFrac pinned at 0.5 — inside (NackLow, NackHigh] — every window,
	// including the partial first window the update stagger produces, by
	// feeding one ack and one nack per cycle with MinSamples = 2.
	cfgHold := cfg
	cfgHold.MinSamples = 2
	g2 := New(cfgHold, 1)
	runWindows(g2, 4, func(int64) {
		g2.Ack(0, 10)
		g2.Nack(0)
	})
	if g2.State(0) != StateHold {
		t.Fatalf("state %v at badFrac 0.5, want hold", g2.State(0))
	}
	if g2.Rate(0) != cfg.InitRate {
		t.Fatalf("rate moved to %v inside the hold band", g2.Rate(0))
	}

	// Losses weigh like nacks.
	g3 := New(cfg, 1)
	runWindows(g3, 4, func(int64) { g3.Lost(0) })
	if g3.Rate(0) >= cfg.InitRate {
		t.Fatalf("rate %v never decreased under pure losses", g3.Rate(0))
	}
}

// TestDeterminism checks the reproducibility contract: two governors
// with the same config fed the same signal sequence end bit-identical,
// across every sender and the recorded history.
func TestDeterminism(t *testing.T) {
	build := func() *Governor {
		cfg := DefaultConfig()
		cfg.UpdateEvery = 32
		cfg.HistoryEvery = 64
		g := New(cfg, 16)
		runWindows(g, 8, func(c int64) {
			src := int(c) % 16
			switch {
			case c%3 == 0:
				g.Nack(nid(src))
			case c%7 == 0:
				g.Lost(nid(src))
			default:
				g.Ack(nid(src), float64(c%50))
			}
		})
		return g
	}
	a, b := build(), build()
	for i := 0; i < 16; i++ {
		if a.Rate(nid(i)) != b.Rate(nid(i)) || a.State(nid(i)) != b.State(nid(i)) ||
			a.senders[i].grad != b.senders[i].grad {
			t.Fatalf("sender %d diverged between identical runs", i)
		}
	}
	if !reflect.DeepEqual(a.History(), b.History()) {
		t.Fatal("history diverged between identical runs")
	}
	if len(a.History()) == 0 {
		t.Fatal("no history recorded with HistoryEvery set")
	}
}

// TestStaggerSpreadsUpdates checks that per-sender update phases are
// spread, not phase-locked: across a population the seeded offsets must
// not all coincide.
func TestStaggerSpreadsUpdates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UpdateEvery = 64
	g := New(cfg, 64)
	offsets := map[int64]bool{}
	for i := range g.senders {
		offsets[g.senders[i].offset] = true
	}
	if len(offsets) < 16 {
		t.Fatalf("only %d distinct update phases across 64 senders", len(offsets))
	}
}

// TestZeroAllocSteadyState checks the armed-governor hot path allocates
// nothing: Tick, Allow, and every signal feed must be allocation-free
// once constructed (history disabled, no telemetry registered).
func TestZeroAllocSteadyState(t *testing.T) {
	g := New(DefaultConfig(), 64)
	var cycle int64
	allocs := testing.AllocsPerRun(200, func() {
		cycle++
		g.Tick(cycle)
		for s := 0; s < 64; s++ {
			if g.Allow(nid(s)) {
				g.Ack(nid(s), 12)
			}
			if s%5 == 0 {
				g.Nack(nid(s))
			}
			if s%17 == 0 {
				g.Lost(nid(s))
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("governor hot path allocates %.1f per cycle, want 0", allocs)
	}
}
