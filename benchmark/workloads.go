package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"phastlane/internal/cc"
	"phastlane/internal/coherence"
	"phastlane/internal/core"
	"phastlane/internal/electrical"
	"phastlane/internal/figures"
	"phastlane/internal/obs"
	"phastlane/internal/provenance"
	"phastlane/internal/sim"
	"phastlane/internal/telemetry"
	"phastlane/internal/trace"
	"phastlane/internal/traffic"
)

// workload is one fixed job list. prepare builds the list from the run's
// seed; it is the part of set-up that does not depend on a single job
// (generating the coherence traces).
type workload struct {
	name    string
	why     string
	prepare func(seed uint64, short bool) ([]*job, setupInfo, error)
}

// setupInfo reports what prepare spent on input generation.
type setupInfo struct {
	genNs     int64 // host time generating coherence traces
	traceMsgs int64 // messages in the generated traces
}

// workloads is the benchmark in its fixed order. The why strings are the
// ones BENCHMARK.json records.
var workloads = []workload{
	{
		name:    "fig9-sweep",
		why:     "Paper Fig. 9: five patterns x Optical4/Electrical3 x four rates, idle to past the knee; the busy-router kernel path, unicast, no hooks.",
		prepare: prepareFig9,
	},
	{
		name:    "splash-replay",
		why:     "Paper Figs. 10-11: the ten SPLASH2 snoopy traces replayed closed-loop on both networks; broadcast multicast and the only trace generation.",
		prepare: prepareSplash,
	},
	{
		name:    "sparse-large",
		why:     "Uniform 0.002 on 32x32 and 64x64 meshes: almost every router idle, so the per-cycle walk over all routers dominates; peak memory.",
		prepare: prepareSparse,
	},
	{
		name:    "instrumented-fabrics",
		why:     "Cheap kernels (Optical4, Benes-64, Shufflecast-64) with obs, telemetry, provenance and cc all armed; harness and probe cost, and fabsim.",
		prepare: prepareFabrics,
	},
}

// workloadByName finds a workload.
func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have all, %v)", name, names)
}

// job is one harness run: a fresh network driven either by Bernoulli
// pattern traffic (sim.RunRate) or by a coherence trace (sim.RunTrace).
type job struct {
	name  string
	seed  uint64 // splitmix64(seed, workload, index); see sub
	nodes int
	net   func(seed int64) sim.Network
	// Rate jobs set pattern; trace jobs set trace.
	pattern         func(seed int64) traffic.Pattern
	rate            float64
	warmup, measure int
	trace           *trace.Trace
	hooks           hookMask
}

// splitmix64 is the benchmark's seed mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// jobSeed derives job index's seed in a workload from the run seed, so
// every input of every job follows from -seed alone.
func jobSeed(seed uint64, workload string, index int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(workload))
	return splitmix64(splitmix64(seed^h.Sum64()) + uint64(index))
}

// Sub-seed roles of one job.
const (
	seedPattern = iota + 1
	seedInjector
	seedNetwork
	seedTrace
	seedHooks
)

// sub returns the job's seed for one role.
func (j *job) sub(role int) int64 { return int64(splitmix64(j.seed + uint64(role))) }

// hookMask selects the optional harness hooks a run arms.
type hookMask uint8

const (
	hookObs hookMask = 1 << iota
	hookTelemetry
	hookProvenance
	hookCC
	allHooks = hookObs | hookTelemetry | hookProvenance | hookCC
)

// instance is one job built and ready to run: the raw network and the
// harness configuration with its hooks.
type instance struct {
	net    sim.Network
	rate   sim.RateConfig
	replay sim.ReplayConfig
	tel    *telemetry.Run
	// phases receives the kernel's phase profile in a traced run; nil
	// otherwise, and nil for kernels without phases (fabsim).
	phases *telemetry.Phases
}

// instance builds a fresh network, pattern and hook set for one run of j.
// With traced set, the kernel gets an every-cycle phase profile: through
// the telemetry hook when it is armed (the harness would replace any
// other profile with the hook's), directly through SetPhases otherwise.
func (j *job) instance(hooks hookMask, traced bool) *instance {
	net := j.net(j.sub(seedNetwork))
	in := &instance{net: net}
	ins, instrumentable := net.(telemetry.Instrumentable)
	var col *obs.Collector
	if hooks&hookObs != 0 {
		col = &obs.Collector{Metrics: obs.NewMetrics(net.Nodes(), 1), Sampler: obs.NewSampler(net.Nodes(), 0)}
	}
	if hooks&hookTelemetry != 0 {
		opt := telemetry.Options{}
		if traced {
			opt.SampleEvery = 1
		}
		in.tel = telemetry.NewRun(opt)
		if traced && instrumentable {
			in.phases = in.tel.Phases
		}
	} else if traced && instrumentable {
		in.phases = telemetry.NewPhases(1)
		ins.SetPhases(in.phases)
	}
	var prov *provenance.Tracker
	if hooks&hookProvenance != 0 {
		prov = provenance.New(provenance.Config{K: provenance.DefaultK, Seed: j.sub(seedHooks)})
	}
	if j.trace != nil {
		in.replay = sim.ReplayConfig{Obs: col, Telemetry: in.tel, Prov: prov}
		return in
	}
	var gov *cc.Governor
	if hooks&hookCC != 0 {
		cfg := cc.DefaultConfig()
		cfg.Seed = j.sub(seedHooks)
		gov = cc.New(cfg, net.Nodes())
	}
	in.rate = sim.RateConfig{
		Pattern: j.pattern(j.sub(seedPattern)),
		Rate:    j.rate,
		Warmup:  j.warmup, Measure: j.measure,
		Seed: j.sub(seedInjector),
		Obs:  col, Telemetry: in.tel, Prov: prov, CC: gov,
	}
	return in
}

// run drives net, which wraps in.net, through the harness.
func (in *instance) run(j *job, net sim.Network) (sim.Result, error) {
	if j.trace != nil {
		return sim.RunTrace(net, j.trace, in.replay)
	}
	return sim.RunRate(net, in.rate), nil
}

// scaled picks the full or the shortened (test) size.
func scaled(short bool, full, small int) int {
	if short {
		return small
	}
	return full
}

// largeMesh builds the Optical4 or Electrical3 configuration on a side x
// side mesh; the figures builders are fixed at 8x8.
func largeMesh(optical bool, side int) func(int64) sim.Network {
	if optical {
		return func(seed int64) sim.Network {
			cfg := core.DefaultConfig() // Optical4: 4 hops, 10-entry buffers
			cfg.Width, cfg.Height, cfg.Seed = side, side, seed
			return core.New(cfg)
		}
	}
	return func(seed int64) sim.Network {
		cfg := electrical.DefaultConfig() // Electrical3
		cfg.Width, cfg.Height, cfg.Seed = side, side, seed
		return electrical.New(cfg)
	}
}

func uniform(nodes int) func(int64) traffic.Pattern {
	return func(seed int64) traffic.Pattern { return traffic.UniformRandom(nodes, seed) }
}

func fixedPattern(p func(int) traffic.Pattern, nodes int) func(int64) traffic.Pattern {
	return func(int64) traffic.Pattern { return p(nodes) }
}

// prepareFig9 is the Fig. 9 grid. Every point runs: no saturation early
// exit, so the electrical busy path past the knee is always measured.
func prepareFig9(seed uint64, short bool) ([]*job, setupInfo, error) {
	patterns := []struct {
		name string
		p    func(int64) traffic.Pattern
	}{
		{"BitComp", fixedPattern(traffic.BitComplement, 64)},
		{"BitRev", fixedPattern(traffic.BitReverse, 64)},
		{"Shuffle", fixedPattern(traffic.Shuffle, 64)},
		{"Transpose", fixedPattern(traffic.Transpose, 64)},
		{"Uniform", uniform(64)},
	}
	var jobs []*job
	for _, p := range patterns {
		for _, nc := range []figures.NetConfig{figures.Optical4, figures.Electrical3} {
			for _, rate := range []float64{0.02, 0.10, 0.20, 0.30} {
				jobs = append(jobs, &job{
					name:  fmt.Sprintf("%s/%s/%.2f", p.name, nc.Name, rate),
					seed:  jobSeed(seed, "fig9-sweep", len(jobs)),
					nodes: 64, net: nc.Build, pattern: p.p, rate: rate,
					warmup: scaled(short, 300, 50), measure: scaled(short, 1000, 100),
				})
			}
		}
	}
	return jobs, setupInfo{}, nil
}

// prepareSplash generates the Table 3 snoopy traces and replays each on
// both networks.
func prepareSplash(seed uint64, short bool) ([]*job, setupInfo, error) {
	benches := coherence.Benchmarks()
	if short {
		benches = benches[:2]
	}
	var info setupInfo
	var jobs []*job
	for i, p := range benches {
		p.Messages = scaled(short, 3000, 300)
		traceSeed := (&job{seed: jobSeed(seed, "splash-replay", i)}).sub(seedTrace)
		t0 := time.Now()
		tr, err := coherence.GenerateTrace(p, coherence.DefaultConfig(), traceSeed)
		info.genNs += int64(time.Since(t0))
		if err != nil {
			return nil, info, err
		}
		info.traceMsgs += int64(len(tr.Messages))
		for _, nc := range []figures.NetConfig{figures.Optical4, figures.Electrical3} {
			jobs = append(jobs, &job{
				name:  p.Name + "/" + nc.Name,
				seed:  jobSeed(seed, "splash-replay", len(jobs)),
				nodes: tr.Nodes, net: nc.Build, trace: tr,
			})
		}
	}
	return jobs, info, nil
}

// prepareSparse is the idle-router regime at large mesh sizes.
func prepareSparse(seed uint64, short bool) ([]*job, setupInfo, error) {
	specs := []struct {
		optical bool
		side    int
		measure int
	}{
		{true, 32, scaled(short, 20000, 500)},
		{true, 64, scaled(short, 20000, 500)},
		{false, 32, scaled(short, 4000, 200)},
	}
	var jobs []*job
	for _, s := range specs {
		name := "Electrical3"
		if s.optical {
			name = "Optical4"
		}
		nodes := s.side * s.side
		jobs = append(jobs, &job{
			name:  fmt.Sprintf("%s/%dx%d", name, s.side, s.side),
			seed:  jobSeed(seed, "sparse-large", len(jobs)),
			nodes: nodes, net: largeMesh(s.optical, s.side), pattern: uniform(nodes), rate: 0.002,
			warmup: scaled(short, 500, 100), measure: s.measure,
		})
	}
	return jobs, setupInfo{}, nil
}

// prepareFabrics runs the cheap kernels with every hook armed.
func prepareFabrics(seed uint64, short bool) ([]*job, setupInfo, error) {
	var jobs []*job
	for _, nc := range []figures.NetConfig{figures.Optical4, figures.BenesFabric, figures.ShuffleFabric} {
		for _, rate := range []float64{0.10, 0.40} {
			jobs = append(jobs, &job{
				name:  fmt.Sprintf("%s/%.2f", nc.Name, rate),
				seed:  jobSeed(seed, "instrumented-fabrics", len(jobs)),
				nodes: 64, net: nc.Build, pattern: uniform(64), rate: rate,
				warmup: scaled(short, 1000, 100), measure: scaled(short, 40000, 1000),
				hooks: allHooks,
			})
		}
	}
	return jobs, setupInfo{}, nil
}
