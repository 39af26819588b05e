// Package cc implements closed-loop congestion control for the NIC
// injection path: a per-sender delay-gradient overuse estimator, an AIMD
// rate controller with a Hold/Increase/Decrease state machine, and a
// token-bucket injection governor the sim harness consults before every
// injection. The decomposition follows the GCC (Google Congestion
// Control) architecture — arrival filter, over-use detector, rate
// controller — re-expressed over the signals a Phastlane NIC already
// observes: inject→eject latency for delivered messages (the RTT proxy),
// drop/nack notices from the drop/retry protocol, and delivery-layer
// losses.
//
// Everything is deterministic. A Governor consumes no wall clock and no
// shared randomness: controller updates are staggered across senders by a
// splitmix64 hash of (Seed, sender) so AIMD phases do not lock, and every
// decision depends only on the signal sequence the harness feeds it.
// Because the harness drives the governor synchronously from its own
// single-threaded cycle loop, governed runs are bit-identical at any
// worker count provided each experiment point builds its own Governor
// (the same fresh-network-per-point rule the exp engine already imposes).
//
// A nil *Governor disables congestion control entirely — the harness
// nil-guards every call, so disabled runs cost one branch per cycle and
// stay bit-identical to pre-cc behaviour, the same contract as the fault,
// telemetry, and provenance layers.
package cc

import (
	"fmt"

	"phastlane/internal/mesh"
	"phastlane/internal/telemetry"
)

// State is the AIMD controller state of one sender.
type State int8

// Controller states.
const (
	// StateHold keeps the rate: the estimator reports underuse (queues
	// draining after a decrease) or the loss ratio sits in the
	// indeterminate band.
	StateHold State = iota
	// StateIncrease grows the rate additively: no overuse signal and a
	// clean loss window.
	StateIncrease
	// StateDecrease cut the rate multiplicatively this window: the
	// estimator detected sustained overuse or losses crossed NackHigh.
	StateDecrease
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateHold:
		return "hold"
	case StateIncrease:
		return "increase"
	case StateDecrease:
		return "decrease"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Config parameterises the control loop. Rates are in packets per node
// per cycle, the same unit as the harness's offered load; gradients and
// thresholds are in cycles of latency change per update window.
type Config struct {
	// InitRate is each sender's starting admitted rate.
	InitRate float64
	// MinRate floors multiplicative decrease so senders never starve.
	MinRate float64
	// MaxRate caps additive increase (1.0 = one packet per cycle, the
	// physical NIC limit).
	MaxRate float64
	// Beta is the multiplicative decrease factor (GCC uses 0.85).
	Beta float64
	// Gain is the additive increase per update window.
	Gain float64
	// UpdateEvery is the controller decision period in cycles. Each
	// sender's update is staggered by a seeded per-sender offset so the
	// population does not phase-lock.
	UpdateEvery int
	// BucketDepth caps accumulated injection tokens, bounding the burst
	// a sender can emit after an idle spell.
	BucketDepth float64

	// GradSmoothing is the exponential filter constant applied to the
	// raw per-window latency gradient (GCC's arrival filter stand-in).
	GradSmoothing float64
	// ThreshInit seeds the adaptive overuse threshold gamma; the
	// threshold then tracks |gradient| with ThreshKUp above it and
	// ThreshKDown below it, clamped to [ThreshMin, ThreshMax] — the GCC
	// adaptive-threshold rule that keeps a persistent offset from
	// starving the sender.
	ThreshInit, ThreshMin, ThreshMax float64
	ThreshKUp, ThreshKDown           float64
	// OveruseWindows is how many consecutive over-threshold windows
	// constitute a sustained overuse signal (GCC's overuse timer).
	OveruseWindows int

	// NackHigh forces Decrease when (nacks+losses)/(acks+nacks+losses)
	// exceeds it; NackLow gates Increase (between the two the controller
	// holds). The band must sit above the protocol's healthy drop ratio:
	// Phastlane drops and retries packets routinely even below the knee.
	NackHigh, NackLow float64
	// MinSamples is the fewest resolved signals (acks+nacks+losses) a
	// window needs before the loss ratio is trusted.
	MinSamples int

	// HistoryEvery, when positive, records a mean-rate sample every that
	// many cycles (see History) — the fault back-off/re-convergence
	// studies read it. Zero disables sampling and keeps the governor
	// allocation-free after construction.
	HistoryEvery int64
	// Seed derives the per-sender update stagger.
	Seed int64
}

// DefaultConfig returns the tuning used by the governed studies: an
// initial rate comfortably below the 8x8 mesh knee (~0.45 uniform),
// GCC-flavoured filter constants, and a loss band calibrated above the
// optical protocol's healthy drop/retry ratio.
func DefaultConfig() Config {
	return Config{
		InitRate:       0.30,
		MinRate:        0.01,
		MaxRate:        1.0,
		Beta:           0.85,
		Gain:           0.01,
		UpdateEvery:    64,
		BucketDepth:    4,
		GradSmoothing:  0.3,
		ThreshInit:     2.0,
		ThreshMin:      0.5,
		ThreshMax:      30,
		ThreshKUp:      0.05,
		ThreshKDown:    0.01,
		OveruseWindows: 2,
		NackHigh:       0.60,
		NackLow:        0.35,
		MinSamples:     8,
		Seed:           1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.InitRate <= 0 || c.InitRate > c.MaxRate {
		return fmt.Errorf("cc: init rate %v outside (0, %v]", c.InitRate, c.MaxRate)
	}
	if c.MinRate <= 0 || c.MinRate > c.MaxRate {
		return fmt.Errorf("cc: min rate %v outside (0, %v]", c.MinRate, c.MaxRate)
	}
	if c.MaxRate > 1 {
		return fmt.Errorf("cc: max rate %v above one packet/cycle", c.MaxRate)
	}
	if c.Beta <= 0 || c.Beta >= 1 {
		return fmt.Errorf("cc: beta %v outside (0, 1)", c.Beta)
	}
	if c.Gain <= 0 {
		return fmt.Errorf("cc: gain %v", c.Gain)
	}
	if c.UpdateEvery < 1 {
		return fmt.Errorf("cc: update period %d", c.UpdateEvery)
	}
	if c.BucketDepth < 1 {
		return fmt.Errorf("cc: bucket depth %v below one packet", c.BucketDepth)
	}
	if c.GradSmoothing <= 0 || c.GradSmoothing > 1 {
		return fmt.Errorf("cc: gradient smoothing %v outside (0, 1]", c.GradSmoothing)
	}
	if c.ThreshMin <= 0 || c.ThreshMax < c.ThreshMin || c.ThreshInit < c.ThreshMin || c.ThreshInit > c.ThreshMax {
		return fmt.Errorf("cc: threshold bounds init %v, min %v, max %v", c.ThreshInit, c.ThreshMin, c.ThreshMax)
	}
	if c.ThreshKUp <= 0 || c.ThreshKDown <= 0 {
		return fmt.Errorf("cc: threshold gains up %v, down %v", c.ThreshKUp, c.ThreshKDown)
	}
	if c.OveruseWindows < 1 {
		return fmt.Errorf("cc: overuse windows %d", c.OveruseWindows)
	}
	if c.NackHigh <= 0 || c.NackHigh > 1 || c.NackLow < 0 || c.NackLow >= c.NackHigh {
		return fmt.Errorf("cc: nack band [%v, %v]", c.NackLow, c.NackHigh)
	}
	if c.MinSamples < 1 {
		return fmt.Errorf("cc: min samples %d", c.MinSamples)
	}
	if c.HistoryEvery < 0 {
		return fmt.Errorf("cc: history period %d", c.HistoryEvery)
	}
	return nil
}

// sender is one endpoint's complete control-loop state: token bucket,
// AIMD controller, estimator filter, and the current window's signal
// accumulators. Kept in one flat slice so a governor allocates nothing
// after construction.
type sender struct {
	// Token bucket (refilled by Tick, drained by Allow).
	tokens float64
	// Controller.
	rate  float64
	state State
	// Window accumulators, reset at every update.
	acks   int64
	rttSum float64
	nacks  int64
	losses int64
	// Estimator filter state.
	prevMean float64
	havePrev bool
	grad     float64 // filtered delay gradient m(i)
	thresh   float64 // adaptive overuse threshold gamma(i)
	overuse  int     // consecutive over-threshold windows
	// offset staggers this sender's update phase within UpdateEvery.
	offset int64
}

// RateSample is one entry of the governor's rate history: the
// population's state at one sampling instant, used by the fault studies
// to show back-off and re-convergence.
type RateSample struct {
	Cycle int64 `json:"cycle"`
	// MeanRate is the mean admitted rate across senders.
	MeanRate float64 `json:"mean_rate"`
	// Decreases counts senders whose last decision was Decrease.
	Decreases int `json:"decreases"`
	// Acks/Nacks/Losses are totals since the previous sample.
	Acks   int64 `json:"acks"`
	Nacks  int64 `json:"nacks"`
	Losses int64 `json:"losses"`
}

// Governor is the per-run congestion controller: one control loop per
// sender, consulted by the sim harness before every injection. A
// Governor is bound to a single run of a single network — build a fresh
// one per experiment point, exactly like the network itself.
type Governor struct {
	cfg     Config
	senders []sender
	cycle   int64

	// History accumulation (HistoryEvery > 0 only).
	history                       []RateSample
	histAcks, histNacks, histLost int64

	// Telemetry gauges, nil until Register: per-sender series plus
	// population aggregates, all atomically updated so a concurrent
	// scrape never races the cycle loop.
	telRate, telGrad, telState []*telemetry.Gauge
	aggMean, aggMin, aggMax    *telemetry.Gauge
	aggDecreases               *telemetry.Gauge
}

// New builds a governor for nodes senders; it panics on invalid
// configuration, like the simulators.
func New(cfg Config, nodes int) *Governor {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	g := &Governor{cfg: cfg, senders: make([]sender, nodes)}
	for i := range g.senders {
		s := &g.senders[i]
		s.rate = cfg.InitRate
		s.tokens = 1 // first packet admitted immediately
		s.thresh = cfg.ThreshInit
		s.offset = int64(splitmix64(uint64(cfg.Seed)^(uint64(i)+0x9e3779b97f4a7c15)) % uint64(cfg.UpdateEvery))
	}
	if cfg.HistoryEvery > 0 {
		g.history = make([]RateSample, 0, 1024)
	}
	return g
}

// Config returns the tuning the governor was built with.
func (g *Governor) Config() Config { return g.cfg }

// Senders returns the controlled population size.
func (g *Governor) Senders() int { return len(g.senders) }

// Tick advances the governor to cycle: refills every token bucket and
// runs the staggered controller updates due this cycle. The harness
// calls it once per injection cycle, before consulting Allow.
func (g *Governor) Tick(cycle int64) {
	g.cycle = cycle
	every := int64(g.cfg.UpdateEvery)
	for i := range g.senders {
		s := &g.senders[i]
		if s.tokens += s.rate; s.tokens > g.cfg.BucketDepth {
			s.tokens = g.cfg.BucketDepth
		}
		if (cycle+s.offset)%every == 0 {
			g.update(i, s)
		}
	}
	if g.cfg.HistoryEvery > 0 && cycle%g.cfg.HistoryEvery == 0 {
		g.sampleHistory()
	}
	if g.aggMean != nil && cycle%every == 0 {
		g.updateAggregates()
	}
}

// Allow reports whether src may inject one packet this cycle, consuming
// a token when it may. A denied packet counts against the offered load
// exactly like a full NIC: the governor is an admission gate, not a
// queue.
func (g *Governor) Allow(src mesh.NodeID) bool {
	s := &g.senders[src]
	if s.tokens < 1 {
		return false
	}
	s.tokens--
	return true
}

// Ack feeds one delivered message's inject→eject latency (the RTT proxy)
// into src's estimator window.
func (g *Governor) Ack(src mesh.NodeID, latency float64) {
	s := &g.senders[src]
	s.acks++
	s.rttSum += latency
	g.histAcks++
}

// Nack feeds one congestion nack — an optical drop notice returning to
// the owner, or an electrical injection stall — into src's window.
func (g *Governor) Nack(src mesh.NodeID) {
	g.senders[src].nacks++
	g.histNacks++
}

// Lost feeds one delivery-layer loss (retry budget, timeout,
// unreachable) into src's window. Losses weigh like nacks in the loss
// ratio but are reported separately in the history.
func (g *Governor) Lost(src mesh.NodeID) {
	g.senders[src].losses++
	g.histLost++
}

// Rate returns src's current admitted rate.
func (g *Governor) Rate(src mesh.NodeID) float64 { return g.senders[src].rate }

// State returns src's controller state as of its last update.
func (g *Governor) State(src mesh.NodeID) State { return g.senders[src].state }

// Gradient returns src's filtered delay gradient.
func (g *Governor) Gradient(src mesh.NodeID) float64 { return g.senders[src].grad }

// MeanRate returns the population's mean admitted rate.
func (g *Governor) MeanRate() float64 {
	var sum float64
	for i := range g.senders {
		sum += g.senders[i].rate
	}
	return sum / float64(len(g.senders))
}

// History returns the recorded rate samples (HistoryEvery > 0); the
// slice is the governor's own, valid until the next Tick.
func (g *Governor) History() []RateSample { return g.history }

// sampleHistory appends one population sample and resets the interval
// totals.
func (g *Governor) sampleHistory() {
	var sum float64
	dec := 0
	for i := range g.senders {
		sum += g.senders[i].rate
		if g.senders[i].state == StateDecrease {
			dec++
		}
	}
	g.history = append(g.history, RateSample{
		Cycle:     g.cycle,
		MeanRate:  sum / float64(len(g.senders)),
		Decreases: dec,
		Acks:      g.histAcks,
		Nacks:     g.histNacks,
		Losses:    g.histLost,
	})
	g.histAcks, g.histNacks, g.histLost = 0, 0, 0
}

// splitmix64 is the stagger hash (same generator as the exp engine's
// per-point seeds).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
