package main

import (
	"fmt"
	"sort"
	"time"

	"phastlane/internal/mesh"
	"phastlane/internal/traffic"
)

// hookMeasure is the measure phase of the hook-cost sweep's runs.
func hookMeasure(short bool) int { return scaled(short, 10000, 500) }

// span is one slice of the traced run's span file, in host microseconds
// since the traced run began.
type span struct {
	tid        int // 0: the workload; i+1: job i
	name       string
	start, dur int64
	args       string
}

// layersResult is one workload's traced run.
type layersResult struct {
	workload string
	metrics  map[string]float64
	jobs     []jobReport
	spans    []span
	// electricalAttributed is the share of sampled electrical step time
	// the named phases explain.
	electricalAttributed float64
	check                *checker
}

// kernelAgg pools one kernel's calls over a workload's jobs.
type kernelAgg struct {
	stepNs              []int64
	injectNs, injects   int64
	activeSum           int64
	activeFracSum       float64
	phaseNs             map[string]int64
	phaseSteps          int64
	drops, retries      int64
	delivered, attempts int64 // messages delivered; injections plus retries
}

// runLayers is the traced run of w: the same set-up and jobs as the
// end-to-end run, each job once with metering only (the reference for the
// tracing overhead) and once with every kernel call timed, followed by
// the traffic-generator replay and, where the workload arms hooks, the
// hook-cost sweep. Only public functions of the simulator are used.
func runLayers(w workload, seed uint64, short bool) (*layersResult, error) {
	begin := time.Now()
	us := func(t time.Time) int64 { return t.Sub(begin).Microseconds() }
	lr := &layersResult{workload: w.name, metrics: map[string]float64{}}
	var err error
	if lr.check, err = newChecker(w.name, seed, short); err != nil {
		return nil, err
	}

	t0 := time.Now()
	jobs, info, _, setupCalibMs, err := setUp(w, seed, short)
	if err != nil {
		return nil, err
	}
	calibMs := []float64{setupCalibMs}
	lr.spans = append(lr.spans, span{name: "set-up", start: us(t0), dur: time.Since(t0).Microseconds()})
	if info.traceMsgs > 0 {
		lr.metrics["coherence.gen_s"] = float64(info.genNs) / 1e9
		lr.metrics["coherence.gen_msgs_per_s"] = float64(info.traceMsgs) / (float64(info.genNs) / 1e9)
		lr.metrics["coherence.trace_msgs"] = float64(info.traceMsgs)
	}

	// Each job runs twice back to back: metered only, as in the end-to-end
	// run, and traced. Pairing the two, and comparing their drift-corrected
	// times, keeps machine drift out of the tracing overhead; alternating
	// which runs first keeps out what the first run of a pair pays for the
	// second.
	t0 = time.Now()
	aggs := map[string]*kernelAgg{}
	var tracedNs, kernelNs, cycles, nicFree int64
	var e2eRefNs, tracedRefNs float64
	for i, j := range jobs {
		jStart := time.Now()
		var ref, r jobRun
		if i%2 == 0 {
			ref = execute(j, j.hooks, false)
			r = execute(j, j.hooks, true)
		} else {
			r = execute(j, j.hooks, true)
			ref = execute(j, j.hooks, false)
		}
		calibMs = append(calibMs, ref.calibMs, r.calibMs)
		if !lr.check.check(j, &ref) || !lr.check.check(j, &r) {
			continue
		}
		e2eRefNs += refTime(float64(ref.runNs), ref.calibMs)
		tracedRefNs += refTime(float64(r.runNs), r.calibMs)
		a := aggs[r.kernel]
		if a == nil {
			a = &kernelAgg{phaseNs: map[string]int64{}}
			aggs[r.kernel] = a
		}
		c := r.calls
		steps := c.stepNs
		sort.Slice(steps, func(x, y int) bool { return steps[x] < steps[y] })
		var stepSum int64
		for _, d := range steps {
			stepSum += d
		}
		a.stepNs = append(a.stepNs, steps...)
		a.injectNs += c.injectNs
		a.injects += c.injects
		a.activeSum += c.activeSum
		if c.asr != nil {
			a.activeFracSum += float64(c.activeSum) / float64(j.nodes)
		}
		if r.phases != nil {
			snap := r.phases.Snapshot()
			a.phaseSteps += snap.SampledCycles
			for _, st := range snap.Stats {
				a.phaseNs[st.Phase] += st.Nanos
			}
		}
		run := &r.run
		a.drops += run.Drops
		a.retries += run.Retries
		a.delivered += run.Delivered
		a.attempts += run.Injected + run.Retries
		tracedNs += r.runNs
		kernelNs += stepSum + c.injectNs
		cycles += r.cycles
		nicFree += c.nicFree

		tj := jobReport{
			Name: j.name, Kernel: r.kernel, Cycles: r.cycles, Runs: 1, RunNs: float64(r.runNs),
			StepCount: int64(len(steps)), StepNsSum: stepSum,
			StepNsP50: percentile(steps, 50), StepNsP99: percentile(steps, 99),
			Injects: c.injects, InjectNs: c.injectNs,
		}
		lr.jobs = append(lr.jobs, tj)
		runStart := r.start
		lr.spans = append(lr.spans,
			span{tid: i + 1, name: j.name, start: us(jStart), dur: time.Since(jStart).Microseconds()},
			span{tid: i + 1, name: "run", start: us(runStart), dur: r.runNs / 1000},
			span{tid: i + 1, name: r.kernel + ".Step", start: us(runStart), dur: stepSum / 1000,
				args: fmt.Sprintf(`{"count":%d,"sum_ns":%d,"p50_ns":%g,"p99_ns":%g}`, tj.StepCount, stepSum, tj.StepNsP50, tj.StepNsP99)},
			span{tid: i + 1, name: r.kernel + ".Inject", start: us(runStart) + stepSum/1000, dur: c.injectNs / 1000,
				args: fmt.Sprintf(`{"count":%d,"sum_ns":%d}`, c.injects, c.injectNs)},
		)
	}
	lr.spans = append(lr.spans, span{name: "jobs", start: us(t0), dur: time.Since(t0).Microseconds()})
	if e2eRefNs > 0 {
		lr.metrics["bench.trace_overhead_frac"] = tracedRefNs/e2eRefNs - 1
	}
	if tracedNs > 0 && cycles > 0 {
		lr.metrics["sim.self_ns_per_cycle"] = float64(tracedNs-kernelNs) / float64(cycles)
		lr.metrics["sim.self_share"] = float64(tracedNs-kernelNs) / float64(tracedNs)
	}
	lr.metrics["sim.nicfree_calls"] = float64(nicFree)
	for k, a := range aggs {
		lr.kernelMetrics(k, a, tracedNs)
	}

	t0 = time.Now()
	lr.trafficReplay(jobs)
	lr.spans = append(lr.spans, span{name: "traffic replay", start: us(t0), dur: time.Since(t0).Microseconds()})

	t0 = time.Now()
	if lr.hookSweep(jobs, short) {
		lr.spans = append(lr.spans, span{name: "hook sweep", start: us(t0), dur: time.Since(t0).Microseconds()})
	}
	lr.metrics["bench.calib_ms"] = median(calibMs)
	return lr, nil
}

// kernelMetrics turns one kernel's pooled calls into its layer metrics.
func (lr *layersResult) kernelMetrics(k string, a *kernelAgg, tracedNs int64) {
	m := lr.metrics
	sort.Slice(a.stepNs, func(x, y int) bool { return a.stepNs[x] < a.stepNs[y] })
	var sum int64
	for _, d := range a.stepNs {
		sum += d
	}
	steps := float64(len(a.stepNs))
	if steps > 0 {
		m[k+".step_ns_mean"] = float64(sum) / steps
	}
	m[k+".step_ns_p50"] = percentile(a.stepNs, 50)
	m[k+".step_ns_p99"] = percentile(a.stepNs, 99)
	if a.injects > 0 {
		m[k+".inject_ns_mean"] = float64(a.injectNs) / float64(a.injects)
	}
	m[k+".steps"] = steps
	if tracedNs > 0 {
		m[k+".share"] = float64(sum+a.injectNs) / float64(tracedNs)
	}
	if a.phaseSteps > 0 {
		var total, named int64
		for name, ns := range a.phaseNs {
			m[k+".phase."+name+"_ns"] = float64(ns) / float64(a.phaseSteps)
			total += ns
			if name != "other" {
				named += ns
			}
		}
		if k == kernelElectrical && total > 0 {
			lr.electricalAttributed = float64(named) / float64(total)
		}
	}
	switch k {
	case kernelElectrical:
		if steps > 0 {
			m["electrical.active_routers_mean"] = float64(a.activeSum) / steps
			m["electrical.active_frac"] = a.activeFracSum / steps
		}
	case kernelCore:
		m["core.drops"] = float64(a.drops)
		m["core.retries"] = float64(a.retries)
		if a.attempts > 0 {
			m["core.delivered_per_attempt"] = float64(a.delivered) / float64(a.attempts)
		}
	}
}

// countingPattern counts Dest calls of the pattern it wraps.
type countingPattern struct {
	traffic.Pattern
	calls *int64
}

func (p countingPattern) Dest(src mesh.NodeID) mesh.NodeID {
	*p.calls++
	return p.Pattern.Dest(src)
}

// trafficReplay times the traffic layer outside the harness: a fresh
// injector with each rate job's own pattern and seed, ticked once per
// injecting cycle of the job (warmup + measure).
func (lr *layersResult) trafficReplay(jobs []*job) {
	var calls, ticks, ns int64
	for _, j := range jobs {
		if j.trace != nil {
			continue
		}
		inj := traffic.NewInjector(countingPattern{j.pattern(j.sub(seedPattern)), &calls},
			j.nodes, j.rate, j.sub(seedInjector))
		n := j.warmup + j.measure
		t0 := time.Now()
		for c := 0; c < n; c++ {
			inj.Tick()
		}
		ns += int64(time.Since(t0))
		ticks += int64(n)
	}
	if ticks > 0 {
		lr.metrics["traffic.dest_calls"] = float64(calls)
		lr.metrics["traffic.tick_ns_per_cycle"] = float64(ns) / float64(ticks)
	}
}

// hookSweep re-runs the workload's hooked jobs at a shorter measure phase
// with no hooks, each hook alone, and all of them. The governor changes
// the simulated traffic, so the cc figure is the cost of a governed run,
// not pure overhead. It reports whether the workload arms any hooks.
func (lr *layersResult) hookSweep(jobs []*job, short bool) bool {
	var hooked []*job
	for _, j := range jobs {
		if j.hooks != 0 && j.trace == nil {
			jj := *j
			jj.measure = hookMeasure(short)
			hooked = append(hooked, &jj)
		}
	}
	if len(hooked) == 0 {
		return false
	}
	// Job-major order puts a job's hook sets next to each other in time,
	// so machine drift moves them together.
	ns := make([]int64, len(hookConfigs))
	cycles := make([]int64, len(hookConfigs))
	for _, j := range hooked {
		for h, hc := range hookConfigs {
			r := execute(j, hc.mask, false)
			if lr.check.checkRun(j, &r) {
				ns[h] += r.runNs
				cycles[h] += r.cycles
			}
		}
	}
	for h, hc := range hookConfigs {
		if cycles[h] > 0 {
			lr.metrics["hooks."+hc.name+"_ns_per_cycle"] = float64(ns[h]) / float64(cycles[h])
		}
	}
	return true
}
