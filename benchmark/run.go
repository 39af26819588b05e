package main

import (
	"fmt"
	"runtime"
	"time"

	"phastlane/internal/stats"
	"phastlane/internal/telemetry"
)

// jobRun is one execution of one job, reduced to what the metrics need so
// that no run's latency samples outlive it.
type jobRun struct {
	kernel   string
	digest   string
	start    time.Time
	cycles   int64   // Step calls: warmup + measure + drain
	runNs    int64   // host time inside RunRate/RunTrace, drift probe excluded
	calibMs  float64 // the drift probe's mean sample over the run
	allocs   uint64
	liveHeap uint64 // live heap at the end of the run, the job still reachable
	run      stats.Run
	latMean  float64
	latP99   float64
	latCount int
	calls    *callTrace        // traced run only
	phases   *telemetry.Phases // traced run only
	err      error
}

// execute builds a fresh instance of j and runs it once behind a meter.
// A panic inside the simulator fails the job, not the benchmark.
func execute(j *job, hooks hookMask, traced bool) (out jobRun) {
	defer func() {
		if p := recover(); p != nil {
			out.err = fmt.Errorf("panic: %v", p)
		}
	}()
	in := j.instance(hooks, traced)
	m := &meter{}
	if traced {
		m.calls = &callTrace{}
	}
	out.calls, out.phases = m.calls, in.phases
	net, kernel, err := wrap(in.net, m)
	out.kernel = kernel
	if err != nil {
		out.err = err
		return out
	}
	// Every job starts from a collected heap, so the GC work a job pays
	// for does not depend on what ran before it.
	var mem runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&mem)
	mallocs := mem.Mallocs
	m.probe.sample()
	paused := m.probe.pauseNs
	out.start = time.Now()
	res, err := in.run(j, net)
	out.runNs = int64(time.Since(out.start)) - (m.probe.pauseNs - paused)
	// The live heap is exact only right after a collection, so collect
	// while the network and the result are still reachable.
	runtime.GC()
	runtime.ReadMemStats(&mem)
	out.allocs, out.liveHeap = mem.Mallocs-mallocs, mem.HeapAlloc
	m.probe.sample()
	out.calibMs = m.probe.meanMs()
	out.cycles = m.steps
	if err == nil {
		err = checkInvariants(j, in, &res)
	}
	out.err = err
	out.digest = digest(&res)
	out.run = res.Run
	out.latCount, out.latMean, out.latP99 = res.Run.Latency.Count(), res.Run.Latency.Mean(), res.Run.Latency.Percentile(99)
	out.run.Latency = stats.Latency{}
	return out
}

// setUp prepares w's job list and builds every job's network, pattern and
// hooks once, and returns the list, the host seconds it took and the mean
// calibration sample taken just before and just after it. The instances
// are dropped: each run builds its own.
func setUp(w workload, seed uint64, short bool) (jobs []*job, info setupInfo, secs, calibMs float64, err error) {
	runtime.GC() // a repeat does not pay for collecting the previous one's garbage
	before := calibrate()
	t0 := time.Now()
	jobs, info, err = w.prepare(seed, short)
	if err != nil {
		return nil, info, 0, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	for _, j := range jobs {
		j.instance(j.hooks, false)
	}
	secs = time.Since(t0).Seconds()
	return jobs, info, secs, (before + calibrate()) / 2, nil
}

// checker verifies each job run: its own error and invariants, then its
// digest against the committed golden at goldenSeed and against the
// first run of the same job in this process.
type checker struct {
	golden   map[string]string // job -> digest; nil off goldenSeed
	first    map[string]string
	attempts int
	failures []string
}

// newChecker builds the checker for one workload run. Shortened (test)
// jobs have no goldens.
func newChecker(workload string, seed uint64, short bool) (*checker, error) {
	c := &checker{first: map[string]string{}}
	if seed == goldenSeed && !short {
		g, err := golden()
		if err != nil {
			return nil, err
		}
		c.golden = g[workload]
		if c.golden == nil {
			c.golden = map[string]string{}
		}
	}
	return c, nil
}

func (c *checker) fail(j *job, format string, args ...any) bool {
	c.failures = append(c.failures, j.name+": "+fmt.Sprintf(format, args...))
	return false
}

// checkRun records a run whose configuration differs from the job's own
// (the hook sweep), so only its error and invariants are checked.
func (c *checker) checkRun(j *job, r *jobRun) bool {
	c.attempts++
	if r.err != nil {
		return c.fail(j, "%v", r.err)
	}
	return true
}

// check records one run of j as configured and reports whether it passed.
func (c *checker) check(j *job, r *jobRun) bool {
	if !c.checkRun(j, r) {
		return false
	}
	if c.golden != nil {
		if want := c.golden[j.name]; want != r.digest {
			return c.fail(j, "digest %s, golden %q", r.digest, want)
		}
	}
	if first, ok := c.first[j.name]; ok {
		if first != r.digest {
			return c.fail(j, "digest %s differs from the first run's %s", r.digest, first)
		}
	} else {
		c.first[j.name] = r.digest
	}
	return true
}

// e2eResult is one workload's end-to-end run. Host times are kept both as
// measured and corrected for machine drift (see metrics).
type e2eResult struct {
	workload string
	calibMs  []float64 // every set-up's and job run's mean calibration sample
	setupS   []float64
	setupRef []float64 // setupS corrected
	jobs     []*job
	first    []jobRun    // first run of each job: cycles, allocations, model
	runNs    [][]float64 // per job, per pass
	runRefNs [][]float64 // runNs corrected
	heapPeak uint64
	check    *checker
}

// maxSetups caps the set-up repeats of a cheap set-up.
const maxSetups = 25

// refTime corrects a host time measured while the calibration loop took
// calibMs to the reference machine's, on which it takes calibRefMs.
func refTime(host, calibMs float64) float64 { return host * calibRefMs / calibMs }

// runE2E sets w up, then runs its job list pass after pass, with metering
// only, until seconds have elapsed since the run began. Set-up repeats
// while the repeats fit in half of that budget (always once, at most
// maxSetups times); a pass that has begun starts no job after the
// deadline, but the first pass always runs whole.
func runE2E(w workload, seed uint64, seconds float64, short bool) (*e2eResult, error) {
	r := &e2eResult{workload: w.name}
	var err error
	if r.check, err = newChecker(w.name, seed, short); err != nil {
		return nil, err
	}
	budget := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	deadline := start.Add(budget)
	var last time.Duration
	for rep := 0; rep == 0 || (rep < maxSetups && time.Since(start)+last <= budget/2); rep++ {
		var secs, calibMs float64
		if r.jobs, _, secs, calibMs, err = setUp(w, seed, short); err != nil {
			return nil, err
		}
		r.calibMs = append(r.calibMs, calibMs)
		r.setupS = append(r.setupS, secs)
		r.setupRef = append(r.setupRef, refTime(secs, calibMs))
		last = time.Duration(secs * float64(time.Second))
	}
	r.first = make([]jobRun, len(r.jobs))
	r.runNs = make([][]float64, len(r.jobs))
	r.runRefNs = make([][]float64, len(r.jobs))
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		for i, j := range r.jobs {
			if pass > 0 && !time.Now().Before(deadline) {
				break
			}
			run := execute(j, j.hooks, false)
			r.check.check(j, &run)
			if pass == 0 {
				r.first[i] = run
			}
			r.calibMs = append(r.calibMs, run.calibMs)
			r.runNs[i] = append(r.runNs[i], float64(run.runNs))
			r.runRefNs[i] = append(r.runRefNs[i], refTime(float64(run.runNs), run.calibMs))
			r.heapPeak = max(r.heapPeak, run.liveHeap)
		}
	}
	return r, nil
}

// hostTimes are the two host-time metrics before the drift correction.
type hostTimes struct {
	SetupS     float64 `json:"setup_s"`
	CyclesPerS float64 `json:"cycles_per_s"`
}

// metrics computes the end-to-end metrics, and the host times before the
// drift correction. Host time per job is the median over its runs, so a
// burst of machine noise in one pass does not move the result; everything
// else repeats exactly at a given seed and comes from the first run.
//
// Both host-time metrics are corrected for machine drift: each set-up and
// each job run is scaled by the calibration loop's time while it ran
// against calibRefMs, so the metrics read in seconds of a reference
// machine on which the loop takes calibRefMs. The loop is the benchmark's
// own code, so no change to the simulator moves it, while a slow period of
// a shared machine slows the loop and the simulator alike.
func (r *e2eResult) metrics() (map[string]float64, hostTimes) {
	var cycles, allocs, runNs, refNs float64
	var latSum, latN, p99Sum, jobsWithLatency, delivered, energy float64
	for i := range r.jobs {
		f := &r.first[i]
		if f.err != nil {
			continue
		}
		cycles += float64(f.cycles)
		allocs += float64(f.allocs)
		runNs += median(r.runNs[i])
		refNs += median(r.runRefNs[i])
		if f.latCount > 0 {
			latSum += f.latMean * float64(f.latCount)
			latN += float64(f.latCount)
			p99Sum += f.latP99
			jobsWithLatency++
		}
		delivered += float64(f.run.Delivered)
		energy += f.run.TotalEnergyPJ()
	}
	host := hostTimes{SetupS: median(r.setupS)}
	m := map[string]float64{
		"setup_s":         median(r.setupRef),
		"peak_heap_mb":    float64(r.heapPeak) / 1e6,
		"model_delivered": delivered,
		"model_energy_uj": energy / 1e6,
	}
	if runNs > 0 {
		host.CyclesPerS = cycles / runNs * 1e9
		m["cycles_per_s"] = cycles / refNs * 1e9
	}
	if cycles > 0 {
		m["allocs_per_cycle"] = allocs / cycles
	}
	if latN > 0 {
		m["model_latency_mean_cycles"] = latSum / latN
		m["model_latency_p99_cycles"] = p99Sum / jobsWithLatency
	}
	return m, host
}

// calibRefMs is the calibration loop's time on the reference machine the
// corrected host times are expressed in: about its median on a 2-vCPU
// Intel Xeon VM at rest.
const calibRefMs = 1.5

// calibBuf is the calibration loop's 1 MiB working set, allocated once so
// that a sample taken during a job adds nothing to its allocations.
var calibBuf = make([]uint64, 1<<17)

// calibrate times a fixed loop owned by the benchmark (hashing and
// scattered writes over 1 MiB, about 1.5 ms), so machine drift can be
// told apart from a change to the simulator.
func calibrate() float64 {
	x := uint64(1)
	t0 := time.Now()
	for i := 0; i < 1<<18; i++ {
		x = splitmix64(x)
		calibBuf[x&(1<<17-1)] += x
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}
