package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"phastlane/internal/fault"
	"phastlane/internal/mesh"
	"phastlane/internal/packet"
	"phastlane/internal/sim"
)

// goldenScenario is one pinned optical run: a configuration, a fault
// plan in the fault.ParseSpec DSL (empty for none), a per-node injection
// rate, and the FNV-64a digest the run must produce.
type goldenScenario struct {
	name        string
	w, h, hops  int
	buf         int // BufferEntries; -1 is unbounded
	arb         Arbiter
	bypass      bool
	rrTurns     bool
	ucastBcast  bool
	faults      string
	lossTimeout int64
	retryLimit  int
	rate        float64
	want        uint64
}

// goldenScenarios pins the kernel's grant order, contention order, drop
// and retry behaviour and energy accounting across every knob launch and
// walk read: meshes from 3x3 to 16x16, MaxHops 4, 5 and 8, buffers of 1,
// 2, 4 or unbounded, all three arbiters, bypass on and off, round-robin
// turns, unicast broadcasts, and fault plans with a dead link, stuck
// routers, slot faults, corruption and loss timeouts.
var goldenScenarios = []goldenScenario{
	{name: "3x3/rotating/h4/b1", w: 3, h: 3, hops: 4, buf: 1, arb: ArbRotating, bypass: true, rate: 0.30, want: 0x6f7d422a38452951},
	{name: "3x3/oldest/h8/b2/no-bypass", w: 3, h: 3, hops: 8, buf: 2, arb: ArbOldestFirst, rate: 0.60, want: 0x50c246576a6ae3ed},
	{name: "3x3/longest/h5/unbounded/rr", w: 3, h: 3, hops: 5, buf: -1, arb: ArbLongestQueue, bypass: true, rrTurns: true, rate: 0.45, want: 0xff8750c5880d20de},
	{name: "4x4/rotating/h5/b2/no-bypass", w: 4, h: 4, hops: 5, buf: 2, arb: ArbRotating, rate: 0.20, want: 0x3c4c39146501039b},
	{name: "4x4/oldest/h4/b1", w: 4, h: 4, hops: 4, buf: 1, arb: ArbOldestFirst, bypass: true, rate: 0.40, want: 0x428778b945b70485},
	{name: "4x4/longest/h8/b4/ucast-bcast", w: 4, h: 4, hops: 8, buf: 4, arb: ArbLongestQueue, bypass: true, ucastBcast: true, rate: 0.10, want: 0x3615b73bfaea2141},
	{name: "5x5/rotating/h8/b4/rr", w: 5, h: 5, hops: 8, buf: 4, arb: ArbRotating, bypass: true, rrTurns: true, rate: 0.60, want: 0x890f09f1d01e8044},
	{name: "5x5/oldest/h5/unbounded/no-bypass", w: 5, h: 5, hops: 5, buf: -1, arb: ArbOldestFirst, rate: 0.25, want: 0x9492d1397c07b688},
	{name: "6x6/longest/h4/b2/no-bypass/rr", w: 6, h: 6, hops: 4, buf: 2, arb: ArbLongestQueue, rrTurns: true, rate: 0.35, want: 0x7f0305197bb3da25},
	{name: "6x6/oldest/h4/b4/ucast-bcast", w: 6, h: 6, hops: 4, buf: 4, arb: ArbOldestFirst, bypass: true, ucastBcast: true, rate: 0.05, want: 0xb35d831a0f06d486},
	{name: "8x8/rotating/h4/b4", w: 8, h: 8, hops: 4, buf: 4, arb: ArbRotating, bypass: true, rate: 0.10, want: 0x59683ab37df68c99},
	{name: "8x8/oldest/h4/b2", w: 8, h: 8, hops: 4, buf: 2, arb: ArbOldestFirst, bypass: true, rate: 0.30, want: 0x4d8192a6c8db9d83},
	{name: "8x8/longest/h5/b1/no-bypass", w: 8, h: 8, hops: 5, buf: 1, arb: ArbLongestQueue, rate: 0.50, want: 0x69204c5e66db24fd},
	{name: "8x8/rotating/h8/unbounded/no-bypass/rr", w: 8, h: 8, hops: 8, buf: -1, arb: ArbRotating, rrTurns: true, rate: 0.20, want: 0xc93b908188497013},
	{name: "8x8/oldest/h8/b4/rr/ucast-bcast", w: 8, h: 8, hops: 8, buf: 4, arb: ArbOldestFirst, bypass: true, rrTurns: true, ucastBcast: true, rate: 0.15, want: 0x34f0dcf4fa364522},
	{name: "8x8/longest/h4/b2/retry-limit", w: 8, h: 8, hops: 4, buf: 2, arb: ArbLongestQueue, bypass: true, retryLimit: 3, rate: 0.40, want: 0xc69628f57d261f8b},
	{name: "12x12/rotating/h4/b2", w: 12, h: 12, hops: 4, buf: 2, arb: ArbRotating, bypass: true, rate: 0.05, want: 0x5059bc9f6b55639e},
	{name: "12x12/oldest/h5/b4", w: 12, h: 12, hops: 5, buf: 4, arb: ArbOldestFirst, bypass: true, rate: 0.10, want: 0xea34bafeb062fe75},
	{name: "16x16/rotating/h4/b4", w: 16, h: 16, hops: 4, buf: 4, arb: ArbRotating, bypass: true, rate: 0.02, want: 0x3e8d4046433df80a},
	{name: "16x16/longest/h8/b1", w: 16, h: 16, hops: 8, buf: 1, arb: ArbLongestQueue, bypass: true, rate: 0.04, want: 0xf19e6a6c429201b7},
	{name: "16x16/oldest/h4/unbounded", w: 16, h: 16, hops: 4, buf: -1, arb: ArbOldestFirst, bypass: true, rate: 0.03, want: 0x2644f1482c042e26},
	{name: "4x4/rotating/h4/b2/dead-link", w: 4, h: 4, hops: 4, buf: 2, arb: ArbRotating, bypass: true, faults: "dead-link@5:E", rate: 0.30, want: 0xa280edef250b4b1f},
	{name: "6x6/rotating/h4/b4/stuck", w: 6, h: 6, hops: 4, buf: 4, arb: ArbRotating, bypass: true, faults: "stuck@14#100-300;stuck@14#250-400;stuck@20#50-51", rate: 0.20, want: 0x7f227a182ddba06b},
	{name: "8x8/oldest/h4/b2/slots", w: 8, h: 8, hops: 4, buf: 2, arb: ArbOldestFirst, bypass: true, faults: "slots@27:N=1;slots@9:L=1#0-200;slots@36:E=2", rate: 0.30, want: 0xef928de8a35f8945},
	{name: "8x8/longest/h5/b4/no-bypass/corrupt", w: 8, h: 8, hops: 5, buf: 4, arb: ArbLongestQueue, faults: "seed=3;corrupt=0.01", rate: 0.20, want: 0xd1638e6ddc1f57c1},
	{name: "8x8/rotating/h4/b2/loss-timeout", w: 8, h: 8, hops: 4, buf: 2, arb: ArbRotating, bypass: true, faults: "dead-link@18:N;stuck@43#100-250", lossTimeout: 200, rate: 0.40, want: 0x9cc3927a9e85ad8c},
	{name: "5x5/rotating/h8/b1/no-bypass/rr/faults", w: 5, h: 5, hops: 8, buf: 1, arb: ArbRotating, rrTurns: true, faults: "seed=9;corrupt=0.01;dead-link@12:N#50-300;stuck@7", lossTimeout: 150, rate: 0.25, want: 0x010bd2a5e30f70a4},
	{name: "3x3/oldest/h4/b1/ucast-bcast/corrupt", w: 3, h: 3, hops: 4, buf: 1, arb: ArbOldestFirst, bypass: true, ucastBcast: true, faults: "seed=5;corrupt=0.01", lossTimeout: 100, rate: 0.50, want: 0x50feb38be15414ab},
	{name: "16x16/rotating/h4/b2/faults", w: 16, h: 16, hops: 4, buf: 2, arb: ArbRotating, bypass: true, faults: "dead-link@100:E;stuck@50#0-300;slots@120:W=1", rate: 0.02, want: 0x85aa6dc75867e78b},
	{name: "8x8/oldest/h5/unbounded/stuck/rr", w: 8, h: 8, hops: 5, buf: -1, arb: ArbOldestFirst, bypass: true, rrTurns: true, faults: "stuck@27#30-200;dead-link@35:W#0-400", lossTimeout: 300, rate: 0.35, want: 0xd25993451b6f8b68},
}

// goldenCycles is how long each golden scenario injects and steps.
const goldenCycles = 600

// digestRun drives one scenario for goldenCycles cycles of seeded
// Bernoulli load, about one injection in 40 a broadcast, and returns an
// FNV-64a digest of every traced event, every delivery with its cycle,
// every loss report and the final stats.Run, energies as float bits.
func digestRun(t *testing.T, sc goldenScenario) uint64 {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Width, cfg.Height, cfg.MaxHops = sc.w, sc.h, sc.hops
	cfg.BufferEntries = sc.buf
	cfg.Arbiter = sc.arb
	cfg.Bypass = sc.bypass
	cfg.RoundRobinTurns = sc.rrTurns
	cfg.UnicastBroadcast = sc.ucastBcast
	cfg.LossTimeout = sc.lossTimeout
	cfg.RetryLimit = sc.retryLimit
	cfg.Seed = 7
	if sc.faults != "" {
		plan, err := fault.ParseSpec(sc.faults)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = plan
	}
	n := New(cfg)
	h := fnv.New64a()
	var word [8]byte
	put := func(vs ...uint64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(word[:], v)
			h.Write(word[:])
		}
	}
	n.SetTracer(func(e Event) {
		put(1, uint64(e.Cycle), uint64(e.Kind), e.MsgID, uint64(e.Node), uint64(e.Dir))
	})
	n.SetLossHandler(func(l sim.Loss) {
		put(2, l.MsgID, uint64(l.Node), uint64(l.Count), uint64(l.Reason))
	})
	nodes := sc.w * sc.h
	rng := rand.New(rand.NewSource(int64(nodes)*1000 + int64(sc.rate*1000)))
	var id uint64
	var buf []sim.Delivery
	for c := 0; c < goldenCycles; c++ {
		for src := mesh.NodeID(0); int(src) < nodes; src++ {
			if rng.Float64() >= sc.rate {
				continue
			}
			m := sim.Message{ID: id + 1, Src: src, Op: packet.OpSynthetic}
			if rng.Intn(40) == 0 {
				for d := mesh.NodeID(0); int(d) < nodes; d++ {
					if d != src {
						m.Dsts = append(m.Dsts, d)
					}
				}
			} else {
				dst := mesh.NodeID(rng.Intn(nodes - 1))
				if dst >= src {
					dst++
				}
				m.Dsts = []mesh.NodeID{dst}
			}
			if n.NICFree(src) > 0 {
				n.Inject(m)
				id++
			}
		}
		buf = n.Step(buf[:0])
		for _, d := range buf {
			put(3, uint64(c), d.MsgID, uint64(d.Dst))
		}
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	r := n.Run()
	put(4, uint64(r.Cycles), uint64(r.Injected), uint64(r.Delivered), uint64(r.Drops), uint64(r.Retries),
		uint64(r.Lost), uint64(r.Unreachable), uint64(r.Corrupt), uint64(r.LinkTraversals), uint64(r.BufferedPackets),
		math.Float64bits(r.ElectricalEnergyPJ), math.Float64bits(r.OpticalEnergyPJ), math.Float64bits(r.LeakagePJ))
	return h.Sum64()
}

// TestOpticalGoldenDigests pins the optical kernel's observable behaviour
// across versions: each scenario's digest was recorded once and must not
// move. The differential suite compares New with NewReference, which
// share launch, and the golden sweeps run only the default configuration,
// so a change in grant order under another arbiter, with bypass off,
// round-robin turns or a fault plan shows up only here.
func TestOpticalGoldenDigests(t *testing.T) {
	for _, sc := range goldenScenarios {
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			if got := digestRun(t, sc); got != sc.want {
				t.Errorf("digest %#016x, want %#016x", got, sc.want)
			}
		})
	}
}
