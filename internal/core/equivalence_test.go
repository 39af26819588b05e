package core

// The differential equivalence suite: the event-driven launch stage (New,
// which visits only active-set members) and the dense reference
// (NewReference, whose set holds every router for good) are driven in
// lockstep over randomized configurations, traffic and fault plans, and
// must stay bit-identical in every observable: per-cycle delivery slices,
// quiescence, NIC headroom, the obs event stream, loss reports, nacks and
// the Run counters, energy floats bit for bit. Missing an activation at
// any idle→busy edge strands a parcel in an unvisited router, which this
// harness sees as a divergence. FuzzOpticalEquivalence drives the same
// scenario generator from fuzz input.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"phastlane/internal/fault"
	"phastlane/internal/mesh"
	"phastlane/internal/packet"
	"phastlane/internal/sim"
	"phastlane/internal/traffic"
)

// draw returns a choice in [0, n). The randomized suite backs it with
// math/rand, the fuzzer with its input bytes.
type draw func(n int) int

// byteDraw decodes data as a stream of choices; past the end every choice
// is 0, so every input yields a valid scenario.
func byteDraw(data []byte) draw {
	pos := 0
	return func(n int) int {
		if pos >= len(data) {
			return 0
		}
		b := int(data[pos])
		pos++
		return b % n
	}
}

// diffNets drives the two kernels in lockstep.
type diffNets struct {
	ev, ref           *Network
	evEvents, refEvts []Event
	evLoss, refLoss   []sim.Loss
	evNacks, refNacks []mesh.NodeID
	cycle             int64
	accepted          int
}

func newDiff(cfg Config) *diffNets {
	d := &diffNets{ev: New(cfg), ref: NewReference(cfg)}
	d.ev.SetTracer(func(e Event) { d.evEvents = append(d.evEvents, e) })
	d.ref.SetTracer(func(e Event) { d.refEvts = append(d.refEvts, e) })
	d.ev.SetLossHandler(func(l sim.Loss) { d.evLoss = append(d.evLoss, l) })
	d.ref.SetLossHandler(func(l sim.Loss) { d.refLoss = append(d.refLoss, l) })
	d.ev.SetNackHandler(func(src mesh.NodeID) { d.evNacks = append(d.evNacks, src) })
	d.ref.SetNackHandler(func(src mesh.NodeID) { d.refNacks = append(d.refNacks, src) })
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
	d.accepted++
	return true
}

// step advances both networks one cycle and fails the test on any
// divergence in deliveries or quiescence, or on a busy router outside the
// event-driven kernel's active set.
func (d *diffNets) step(t *testing.T) {
	t.Helper()
	evBuf := d.ev.Step(nil)
	refBuf := d.ref.Step(nil)
	if !reflect.DeepEqual(evBuf, refBuf) {
		t.Fatalf("cycle %d: deliveries diverged:\n  event-driven %+v\n  reference    %+v", d.cycle, evBuf, refBuf)
	}
	if qe, qr := d.ev.Quiescent(), d.ref.Quiescent(); qe != qr {
		t.Fatalf("cycle %d: Quiescent diverged: event-driven %v, reference %v", d.cycle, qe, qr)
	}
	if err := d.ev.CheckInvariants(); err != nil {
		t.Fatalf("cycle %d: %v", d.cycle, err)
	}
	d.cycle++
}

// finish compares everything accumulated over the run: event streams,
// loss reports, nacks, per-node NIC headroom and the Run counters.
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
	if !reflect.DeepEqual(d.evLoss, d.refLoss) {
		t.Fatalf("loss reports diverged:\n  event-driven %+v\n  reference    %+v", d.evLoss, d.refLoss)
	}
	if !reflect.DeepEqual(d.evNacks, d.refNacks) {
		t.Fatalf("nacks diverged: %d vs %d on the reference", len(d.evNacks), len(d.refNacks))
	}
	for node := 0; node < d.ev.Nodes(); node++ {
		if fe, fr := d.ev.NICFree(mesh.NodeID(node)), d.ref.NICFree(mesh.NodeID(node)); fe != fr {
			t.Errorf("NICFree(%d): %d vs %d on the reference", node, fe, fr)
		}
	}
	re, rr := d.ev.Run(), d.ref.Run()
	if !reflect.DeepEqual(re, rr) {
		t.Errorf("Run counters diverged:\n  event-driven %+v\n  reference    %+v", *re, *rr)
	}
	for _, e := range []struct {
		name   string
		ev, rf float64
	}{
		{"ElectricalEnergyPJ", re.ElectricalEnergyPJ, rr.ElectricalEnergyPJ},
		{"OpticalEnergyPJ", re.OpticalEnergyPJ, rr.OpticalEnergyPJ},
		{"LeakagePJ", re.LeakagePJ, rr.LeakagePJ},
	} {
		if math.Float64bits(e.ev) != math.Float64bits(e.rf) {
			t.Errorf("%s: %v vs %v (must be bit-identical)", e.name, e.ev, e.rf)
		}
	}
}

// drawConfig draws a configuration over the knobs the launch stage and
// the delivery layer read: mesh sides 2–6, buffers and NICs of 1–4
// entries, every MaxHops scenario, bypass, all three arbiters, the
// round-robin crossbar, the unicast-broadcast ablation, and retry and
// loss limits.
func drawConfig(d draw) Config {
	cfg := DefaultConfig()
	cfg.Width, cfg.Height = 2+d(5), 2+d(5)
	cfg.BufferEntries = 1 + d(4)
	cfg.NICEntries = 1 + d(4)
	cfg.MaxHops = []int{4, 5, 8}[d(3)]
	cfg.Bypass = d(2) == 0
	cfg.Arbiter = Arbiter(d(int(numArbiters)))
	cfg.RoundRobinTurns = d(4) == 0
	cfg.UnicastBroadcast = d(5) == 0
	if d(3) == 0 {
		cfg.RetryLimit = 1 + d(6)
	}
	if d(3) == 0 {
		cfg.LossTimeout = 80 + int64(d(300))
	}
	cfg.Seed = int64(d(1 << 16))
	cfg.Faults = drawPlan(d, cfg.Width, cfg.Height)
	return cfg
}

// drawPlan draws a fault plan for about half the scenarios: dead links and
// buffer-slot failures, permanent or windowed, control corruption, and
// chains of stuck-router windows on one node that overlap, abut or leave
// gaps, the last possibly open-ended. Stuck windows are what the derived
// rotating-arbiter pointer (rotation) must count exactly.
func drawPlan(d draw, w, h int) *fault.Plan {
	if d(2) == 0 {
		return nil
	}
	plan := fault.RandomPlan(int64(d(1<<16)), w, h, fault.RandomSpec{
		DeadLinks:  d(3),
		SlotFaults: d(3),
	})
	for i := range plan.Faults {
		if d(2) == 0 {
			from := int64(d(150))
			plan.Faults[i].From, plan.Faults[i].Until = from, from+20+int64(d(200))
		}
	}
	if d(3) == 0 {
		plan.CorruptRate = 0.005 * float64(1+d(6))
	}
	for k := d(3); k > 0; k-- {
		node := mesh.NodeID(d(w * h))
		from := int64(d(120))
		for j := 1 + d(3); j > 0; j-- {
			until := from + 1 + int64(d(60))
			f := fault.Fault{Kind: fault.StuckRouter, Node: node, From: from, Until: until}
			if j == 1 && d(4) == 0 {
				f.Until = 0 // open-ended
			}
			plan.Faults = append(plan.Faults, f)
			switch d(3) {
			case 0: // overlapping: the next window starts inside this one
				from += int64(d(int(until - from)))
			case 1: // adjacent
				from = until
			default:
				from = until + 1 + int64(d(40))
			}
		}
	}
	return plan
}

// runScenario draws a configuration and plan, then drives bursty unicast
// and broadcast traffic with idle gaps (which drain the active set; the
// bursts refill it), a drain phase, and the full comparison.
func runScenario(t *testing.T, d draw) *diffNets {
	t.Helper()
	cfg := drawConfig(d)
	dn := newDiff(cfg)
	nodes := cfg.Width * cfg.Height
	broadcast := func(src mesh.NodeID) []mesh.NodeID {
		dsts := make([]mesh.NodeID, 0, nodes-1)
		for n := 0; n < nodes; n++ {
			if mesh.NodeID(n) != src {
				dsts = append(dsts, mesh.NodeID(n))
			}
		}
		return dsts
	}
	var id uint64
	injecting := true
	for c, total := 0, 60+d(300); c < total; c++ {
		if d(30) == 0 {
			injecting = !injecting
		}
		for k := d(4); injecting && k > 0; k-- {
			src := mesh.NodeID(d(nodes))
			m := sim.Message{ID: id + 1, Src: src, Op: packet.OpSynthetic}
			if d(12) == 0 {
				m.Dsts = broadcast(src)
			} else {
				dst := mesh.NodeID(d(nodes - 1))
				if dst >= src {
					dst++
				}
				m.Dsts = []mesh.NodeID{dst}
			}
			if dn.inject(t, m) {
				id++
			}
		}
		dn.step(t)
	}
	for i := 0; i < 4000 && !(dn.ev.Quiescent() && dn.ref.Quiescent()); i++ {
		dn.step(t)
	}
	dn.finish(t)
	return dn
}

// TestEquivalenceRandomized is the headline differential suite: many
// randomized scenarios, each comparing the event-driven launch stage
// against the dense reference event for event.
func TestEquivalenceRandomized(t *testing.T) {
	seeds := 48
	if testing.Short() {
		seeds = 12
	}
	for s := 0; s < seeds; s++ {
		seed := int64(2000 + s*7919)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			dn := runScenario(t, rand.New(rand.NewSource(seed)).Intn)
			if dn.accepted == 0 {
				t.Fatal("scenario injected nothing; generator is broken")
			}
		})
	}
}

// TestEquivalenceRunRateResults runs the sim harness's synthetic
// methodology (warmup, measure, drain) on both kernels and compares the
// complete Result, the structure every sweep and figure is built from.
func TestEquivalenceRunRateResults(t *testing.T) {
	faulted := DefaultConfig()
	faulted.Faults = fault.RandomPlan(5, 8, 8, fault.RandomSpec{DeadLinks: 4, StuckRouters: 1, SlotFaults: 2, CorruptRate: 0.001})
	faulted.Faults.Faults = append(faulted.Faults.Faults,
		fault.Fault{Kind: fault.StuckRouter, Node: 20, From: 150, Until: 400},
		fault.Fault{Kind: fault.StuckRouter, Node: 20, From: 300, Until: 700})
	faulted.LossTimeout = 2000
	sparse := DefaultConfig()
	sparse.Width, sparse.Height = 16, 16
	for _, tc := range []struct {
		name string
		cfg  Config
		rate float64
	}{
		{"light", DefaultConfig(), 0.02},
		{"heavy", DefaultConfig(), 0.30},
		{"faulted", faulted, 0.10},
		{"sparse-16x16", sparse, 0.002},
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
			if !reflect.DeepEqual(re, rr) {
				t.Errorf("RunRate results diverged:\n  event-driven %+v\n  reference    %+v", re, rr)
			}
		})
	}
}

// FuzzOpticalEquivalence is the coverage-guided arm of the suite: the
// fuzz input is the scenario generator's choice stream. The seed corpus
// under testdata/fuzz covers the structural corners: the all-zero
// scenario (seed-00), a 2x4 mesh with one-entry buffers, retry limits and
// unicast broadcasts (seed-01), rotating arbitration across chained and
// abutting stuck windows under corruption and loss timeouts (seed-02),
// multicast sweeps under the oldest-first arbiter (seed-03), and
// overlapping and open-ended stuck windows with loss timeouts (seed-04).
// CI replays it as a normal test.
func FuzzOpticalEquivalence(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		runScenario(t, byteDraw(data))
	})
}
