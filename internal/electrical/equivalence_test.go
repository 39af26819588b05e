package electrical

// The differential equivalence suite: the event-driven active-set kernel
// (New) and the dense reference walk (NewReference) are driven in
// lockstep over randomized configurations, traffic schedules and fault
// plans, and must stay bit-identical in every observable dimension —
// per-cycle delivery slices, the full obs event stream, loss reports,
// quiescence, NIC occupancy and the network-side Run counters (including
// float energy accumulators, whose addition order the ascending active
// walk preserves). Every future kernel change regresses against this
// harness; FuzzElectricalEquivalence extends it with coverage-guided
// schedules.

import (
	"fmt"
	"math/rand"
	"testing"

	"phastlane/internal/fault"
	"phastlane/internal/mesh"
	"phastlane/internal/obs"
	"phastlane/internal/packet"
	"phastlane/internal/sim"
	"phastlane/internal/traffic"
)

// diffNets drives the two kernels in lockstep.
type diffNets struct {
	ev, ref           *Network
	evEvents, refEvts []obs.Event
	evLoss, refLoss   []sim.Loss
	cycle             int64
}

func newDiff(cfg Config) *diffNets {
	d := &diffNets{ev: New(cfg), ref: NewReference(cfg)}
	d.ev.SetTracer(func(e obs.Event) { d.evEvents = append(d.evEvents, e) })
	d.ref.SetTracer(func(e obs.Event) { d.refEvts = append(d.refEvts, e) })
	d.ev.SetLossHandler(func(l sim.Loss) { d.evLoss = append(d.evLoss, l) })
	d.ref.SetLossHandler(func(l sim.Loss) { d.refLoss = append(d.refLoss, l) })
	return d
}

// inject places m into both networks after checking that they agree on
// NIC headroom; it reports whether the message was accepted.
func (d *diffNets) inject(t *testing.T, m sim.Message) bool {
	t.Helper()
	fe, fr := d.ev.NICFree(m.Src), d.ref.NICFree(m.Src)
	if fe != fr {
		t.Fatalf("cycle %d: NICFree(%d) diverged: event-driven %d, reference %d", d.cycle, m.Src, fe, fr)
	}
	if fe <= 0 {
		return false
	}
	d.ev.Inject(m)
	d.ref.Inject(m)
	return true
}

// step advances both networks one cycle and fails the test on any
// divergence in deliveries or quiescence, or on either kernel failing its
// mask and active-set audit (CheckInvariants).
func (d *diffNets) step(t *testing.T) {
	t.Helper()
	evBuf := d.ev.Step(nil)
	refBuf := d.ref.Step(nil)
	for _, n := range []*Network{d.ev, d.ref} {
		if err := n.CheckInvariants(); err != nil {
			t.Fatalf("cycle %d: %v", d.cycle, err)
		}
	}
	if len(evBuf) != len(refBuf) {
		t.Fatalf("cycle %d: %d deliveries vs %d on the reference", d.cycle, len(evBuf), len(refBuf))
	}
	for i := range evBuf {
		if evBuf[i] != refBuf[i] {
			t.Fatalf("cycle %d: delivery %d diverged: %+v vs %+v", d.cycle, i, evBuf[i], refBuf[i])
		}
	}
	if qe, qr := d.ev.Quiescent(), d.ref.Quiescent(); qe != qr {
		t.Fatalf("cycle %d: Quiescent diverged: event-driven %v, reference %v", d.cycle, qe, qr)
	}
	d.cycle++
}

// finish compares everything accumulated over the run: event streams,
// loss reports, per-node NIC occupancy, and the network-side counters.
func (d *diffNets) finish(t *testing.T) {
	t.Helper()
	if len(d.evEvents) != len(d.refEvts) {
		t.Fatalf("event streams: %d events vs %d on the reference", len(d.evEvents), len(d.refEvts))
	}
	for i := range d.evEvents {
		if d.evEvents[i] != d.refEvts[i] {
			t.Fatalf("event %d diverged: %+v vs %+v", i, d.evEvents[i], d.refEvts[i])
		}
	}
	if len(d.evLoss) != len(d.refLoss) {
		t.Fatalf("loss reports: %d vs %d on the reference", len(d.evLoss), len(d.refLoss))
	}
	for i := range d.evLoss {
		if d.evLoss[i] != d.refLoss[i] {
			t.Fatalf("loss %d diverged: %+v vs %+v", i, d.evLoss[i], d.refLoss[i])
		}
	}
	for node := 0; node < d.ev.Nodes(); node++ {
		if fe, fr := d.ev.NICFree(mesh.NodeID(node)), d.ref.NICFree(mesh.NodeID(node)); fe != fr {
			t.Errorf("NICFree(%d): %d vs %d on the reference", node, fe, fr)
		}
	}
	re, rr := d.ev.Run(), d.ref.Run()
	if re.Injected != rr.Injected {
		t.Errorf("Injected: %d vs %d", re.Injected, rr.Injected)
	}
	if re.Lost != rr.Lost {
		t.Errorf("Lost: %d vs %d", re.Lost, rr.Lost)
	}
	if re.LinkTraversals != rr.LinkTraversals {
		t.Errorf("LinkTraversals: %d vs %d", re.LinkTraversals, rr.LinkTraversals)
	}
	if re.ElectricalEnergyPJ != rr.ElectricalEnergyPJ {
		t.Errorf("ElectricalEnergyPJ: %v vs %v (must be bit-identical)", re.ElectricalEnergyPJ, rr.ElectricalEnergyPJ)
	}
	if re.LeakagePJ != rr.LeakagePJ {
		t.Errorf("LeakagePJ: %v vs %v", re.LeakagePJ, rr.LeakagePJ)
	}
}

// randomEqConfig draws a configuration biased toward the awkward corners:
// tiny VC counts, minimum router delay, small NICs that backpressure, and
// the occasional loss timeout.
func randomEqConfig(r *rand.Rand) Config {
	cfg := Config{
		Width:        2 + r.Intn(6),
		Height:       2 + r.Intn(6),
		VCs:          1 + r.Intn(4),
		RouterDelay:  2 + r.Intn(2),
		InputSpeedup: 1 + r.Intn(4),
		Iterations:   1 + r.Intn(2),
		NICEntries:   1 + r.Intn(6),
		Seed:         r.Int63(),
	}
	if r.Intn(4) == 0 {
		cfg.Width, cfg.Height = 8, 8
		cfg.VCs = 10
	}
	if r.Intn(3) == 0 {
		cfg.LossTimeout = 150 + int64(r.Intn(400))
	}
	return cfg
}

// randomEqPlan draws a fault plan for roughly half the runs, mixing
// permanent placements with mid-run activation/heal windows so the
// kernels cross fault transitions while loaded.
func randomEqPlan(r *rand.Rand, w, h int) *fault.Plan {
	if r.Intn(2) == 0 {
		return nil
	}
	plan := fault.RandomPlan(r.Int63(), w, h, fault.RandomSpec{
		DeadLinks:    1 + r.Intn(3),
		StuckRouters: r.Intn(2),
		SlotFaults:   r.Intn(3),
	})
	for i := range plan.Faults {
		if r.Intn(2) == 0 {
			from := int64(r.Intn(120))
			plan.Faults[i].From = from
			plan.Faults[i].Until = from + 40 + int64(r.Intn(200))
		}
	}
	return plan
}

// runEquivalence drives one randomized scenario end to end: bursty
// unicast/multicast traffic with idle gaps, then a drain phase, then the
// full cross-kernel comparison.
func runEquivalence(t *testing.T, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	cfg := randomEqConfig(r)
	cfg.Faults = randomEqPlan(r, cfg.Width, cfg.Height)
	d := newDiff(cfg)
	nodes := cfg.Width * cfg.Height

	var id uint64
	injecting := true
	total := 250 + r.Intn(250)
	for c := 0; c < total; c++ {
		// Toggle between burst and idle phases: the idle gaps drain
		// the active set, the bursts rebuild it.
		if r.Intn(40) == 0 {
			injecting = !injecting
		}
		if injecting {
			for k := r.Intn(3); k > 0; k-- {
				src := mesh.NodeID(r.Intn(nodes))
				id++
				m := sim.Message{ID: id, Src: src, Op: packet.OpSynthetic}
				if r.Intn(10) == 0 {
					// Multicast to a random ascending subset.
					for n := 0; n < nodes; n++ {
						if mesh.NodeID(n) != src && r.Intn(3) == 0 {
							m.Dsts = append(m.Dsts, mesh.NodeID(n))
						}
					}
				}
				if len(m.Dsts) == 0 {
					dst := mesh.NodeID(r.Intn(nodes))
					if dst == src {
						dst = mesh.NodeID((int(dst) + 1) % nodes)
					}
					m.Dsts = []mesh.NodeID{dst}
				}
				if !d.inject(t, m) {
					id--
				}
			}
		}
		d.step(t)
	}
	for i := 0; i < 30000 && !(d.ev.Quiescent() && d.ref.Quiescent()); i++ {
		d.step(t)
	}
	d.finish(t)
	if id == 0 {
		t.Fatal("scenario injected nothing; generator is broken")
	}
}

// TestEquivalenceRandomized is the headline differential suite: many
// randomized scenarios, each comparing the event-driven kernel against
// the dense reference event for event.
func TestEquivalenceRandomized(t *testing.T) {
	seeds := 24
	if testing.Short() {
		seeds = 8
	}
	for s := 0; s < seeds; s++ {
		seed := int64(1000 + s*7919)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runEquivalence(t, seed)
		})
	}
}

// TestEquivalenceRunRateResults runs the sim harness's full synthetic
// methodology (warmup, measure, drain) on both kernels and compares the
// complete Result — the structure every sweep, figure and experiment is
// built from.
func TestEquivalenceRunRateResults(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		rate float64
	}{
		{"light", DefaultConfig(), 0.02},
		{"heavy", DefaultConfig(), 0.30},
		{"faulted", func() Config {
			cfg := DefaultConfig()
			cfg.Faults = fault.RandomPlan(5, 8, 8, fault.RandomSpec{DeadLinks: 4, StuckRouters: 1, SlotFaults: 2})
			cfg.LossTimeout = 2000
			return cfg
		}(), 0.10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			run := func(net sim.Network) sim.Result {
				return sim.RunRate(net, sim.RateConfig{
					Pattern: traffic.Transpose(tc.cfg.Width * tc.cfg.Height),
					Rate:    tc.rate,
					Warmup:  200, Measure: 800, DrainLimit: 20000,
					Seed: 11,
				})
			}
			re, rr := run(New(tc.cfg)), run(NewReference(tc.cfg))
			if re.Run.Latency.Count() != rr.Run.Latency.Count() {
				t.Errorf("latency samples: %d vs %d", re.Run.Latency.Count(), rr.Run.Latency.Count())
			}
			if re.Run.Latency.Mean() != rr.Run.Latency.Mean() {
				t.Errorf("mean latency: %v vs %v", re.Run.Latency.Mean(), rr.Run.Latency.Mean())
			}
			if re.Run.Latency.Percentile(99) != rr.Run.Latency.Percentile(99) {
				t.Errorf("p99 latency: %v vs %v", re.Run.Latency.Percentile(99), rr.Run.Latency.Percentile(99))
			}
			if re.Run.Injected != rr.Run.Injected || re.Run.Delivered != rr.Run.Delivered {
				t.Errorf("injected/delivered: %d/%d vs %d/%d",
					re.Run.Injected, re.Run.Delivered, rr.Run.Injected, rr.Run.Delivered)
			}
			if re.Offered != rr.Offered || re.Lost != rr.Lost || re.Unresolved != rr.Unresolved {
				t.Errorf("offered/lost/unresolved: %d/%d/%d vs %d/%d/%d",
					re.Offered, re.Lost, re.Unresolved, rr.Offered, rr.Lost, rr.Unresolved)
			}
			if re.Saturated != rr.Saturated {
				t.Errorf("saturated: %v vs %v", re.Saturated, rr.Saturated)
			}
			if re.Run.ElectricalEnergyPJ != rr.Run.ElectricalEnergyPJ {
				t.Errorf("energy: %v vs %v", re.Run.ElectricalEnergyPJ, rr.Run.ElectricalEnergyPJ)
			}
			if re.Run.LinkTraversals != rr.Run.LinkTraversals {
				t.Errorf("link traversals: %d vs %d", re.Run.LinkTraversals, rr.Run.LinkTraversals)
			}
		})
	}
}
