package main

import (
	"fmt"
	"time"

	"phastlane/internal/core"
	"phastlane/internal/electrical"
	"phastlane/internal/fabsim"
	"phastlane/internal/mesh"
	"phastlane/internal/sim"
	"phastlane/internal/telemetry"
)

// meter sits between the harness and one kernel. In the end-to-end run it
// counts Step calls (the simulated cycles) and samples the drift probe
// between them; in the traced run calls is set and every Step and Inject
// is timed as well.
type meter struct {
	steps int64
	calls *callTrace
	probe driftProbe
}

// probeEvery is how often, in host time, the drift probe samples the
// calibration loop while a job runs.
const probeEvery = 100 * time.Millisecond

// driftProbe samples the calibration loop before a run, every probeEvery
// during it (between two Steps, checked every 64 Steps) and after it, so
// that each run carries its own measure of how fast the machine was while
// it ran. The time spent sampling is kept out of the run's host time.
type driftProbe struct {
	due     time.Time
	sumMs   float64
	samples int
	pauseNs int64
}

func (p *driftProbe) sample() {
	t0 := time.Now()
	p.sumMs += calibrate()
	p.samples++
	now := time.Now()
	p.pauseNs += int64(now.Sub(t0))
	p.due = now.Add(probeEvery)
}

// meanMs is the mean calibration time over the probe's samples.
func (p *driftProbe) meanMs() float64 { return p.sumMs / float64(p.samples) }

// callTrace is the traced run's record of one job's kernel calls.
type callTrace struct {
	stepNs    []int64 // one entry per Step
	injectNs  int64
	injects   int64
	nicFree   int64
	activeSum int64 // ActiveRouters summed over Steps
	asr       telemetry.ActiveSetReporter
}

func (m *meter) step(net sim.Network, buf []sim.Delivery) []sim.Delivery {
	m.steps++
	if m.steps%64 == 0 && time.Now().After(m.probe.due) {
		m.probe.sample()
	}
	if m.calls == nil {
		return net.Step(buf)
	}
	t0 := time.Now()
	buf = net.Step(buf)
	m.calls.stepNs = append(m.calls.stepNs, int64(time.Since(t0)))
	if m.calls.asr != nil {
		m.calls.activeSum += int64(m.calls.asr.ActiveRouters())
	}
	return buf
}

func (m *meter) inject(net sim.Network, msg sim.Message) {
	if m.calls == nil {
		net.Inject(msg)
		return
	}
	t0 := time.Now()
	net.Inject(msg)
	m.calls.injectNs += int64(time.Since(t0))
	m.calls.injects++
}

func (m *meter) nicFree(net sim.Network, n mesh.NodeID) int {
	if m.calls != nil {
		m.calls.nicFree++
	}
	return net.NICFree(n)
}

// The wrappers embed the concrete kernel, so each forwards exactly the
// optional interfaces (loss, congestion, tracing, phases, active set,
// invariants) its kernel implements and the harness type-asserts, and
// overrides only the three calls the meter observes.

type opticalNet struct {
	*core.Network
	m *meter
}

func (w opticalNet) Step(buf []sim.Delivery) []sim.Delivery { return w.m.step(w.Network, buf) }
func (w opticalNet) Inject(msg sim.Message)                 { w.m.inject(w.Network, msg) }
func (w opticalNet) NICFree(n mesh.NodeID) int              { return w.m.nicFree(w.Network, n) }

type electricalNet struct {
	*electrical.Network
	m *meter
}

func (w electricalNet) Step(buf []sim.Delivery) []sim.Delivery { return w.m.step(w.Network, buf) }
func (w electricalNet) Inject(msg sim.Message)                 { w.m.inject(w.Network, msg) }
func (w electricalNet) NICFree(n mesh.NodeID) int              { return w.m.nicFree(w.Network, n) }

type fabricNet struct {
	*fabsim.Network
	m *meter
}

func (w fabricNet) Step(buf []sim.Delivery) []sim.Delivery { return w.m.step(w.Network, buf) }
func (w fabricNet) Inject(msg sim.Message)                 { w.m.inject(w.Network, msg) }
func (w fabricNet) NICFree(n mesh.NodeID) int              { return w.m.nicFree(w.Network, n) }

// Kernel (layer) names, as the per-layer metrics use them.
const (
	kernelCore       = "core"
	kernelElectrical = "electrical"
	kernelFabsim     = "fabsim"
)

// wrap puts m between the harness and net and names net's kernel.
func wrap(net sim.Network, m *meter) (sim.Network, string, error) {
	if m.calls != nil {
		m.calls.asr, _ = net.(telemetry.ActiveSetReporter)
	}
	switch n := net.(type) {
	case *core.Network:
		return opticalNet{n, m}, kernelCore, nil
	case *electrical.Network:
		return electricalNet{n, m}, kernelElectrical, nil
	case *fabsim.Network:
		return fabricNet{n, m}, kernelFabsim, nil
	}
	return nil, "", fmt.Errorf("no meter for network type %T", net)
}
