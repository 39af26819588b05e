package main

import (
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"phastlane/internal/packet"
	"phastlane/internal/sim"
	"phastlane/internal/telemetry"
)

// digest is an FNV-64a hash over every field of a harness result: a
// simulator-only change must leave it identical. It reads the latency
// percentiles, which sorts the samples in place, so compare results with
// reflect.DeepEqual before digesting them.
func digest(r *sim.Result) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	i := func(v int64) { put(uint64(v)) }
	f := func(v float64) { put(math.Float64bits(v)) }
	run := &r.Run
	i(int64(run.Latency.Count()))
	f(run.Latency.Mean())
	f(run.Latency.Percentile(50))
	f(run.Latency.Percentile(99))
	for _, v := range []int64{run.Cycles, run.Injected, run.Delivered, run.Drops, run.Retries,
		run.Lost, run.Unreachable, run.Corrupt, run.LinkTraversals, run.BufferedPackets} {
		i(v)
	}
	f(run.ElectricalEnergyPJ)
	f(run.OpticalEnergyPJ)
	f(run.LeakagePJ)
	f(r.OfferedRate)
	for _, v := range []int64{r.Offered, r.Paced, r.Makespan, r.Lost, r.Unresolved} {
		i(v)
	}
	if r.Saturated {
		put(1)
	} else {
		put(0)
	}
	i(int64(len(r.DeliveredBySender)))
	for _, v := range r.DeliveredBySender {
		i(v)
	}
	ops := make([]packet.Op, 0, len(r.LatencyByOp))
	for op := range r.LatencyByOp {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(a, b int) bool { return ops[a] < ops[b] })
	for _, op := range ops {
		l := r.LatencyByOp[op]
		i(int64(op))
		i(int64(l.Count()))
		f(l.Mean())
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// checkInvariants reports the first conservation law a finished job
// breaks: the harness's own accounting chain, the network's structural
// audit, and any telemetry watchdog trip.
func checkInvariants(j *job, in *instance, r *sim.Result) error {
	run := &r.Run
	if j.trace != nil {
		if r.Saturated {
			return errors.New("trace replay hit its cycle limit")
		}
		if got, want := run.Delivered+r.Lost, int64(len(j.trace.Messages)); got != want {
			return fmt.Errorf("delivered %d + lost %d != %d trace messages", run.Delivered, r.Lost, want)
		}
	} else if !(run.Delivered <= run.Injected && run.Injected <= r.Offered) {
		return fmt.Errorf("delivered %d <= injected %d <= offered %d broken", run.Delivered, run.Injected, r.Offered)
	}
	if ic, ok := in.net.(telemetry.InvariantChecker); ok {
		if err := ic.CheckInvariants(); err != nil {
			return err
		}
	}
	if in.tel != nil {
		if trips := in.tel.Watchdog.Trips(); len(trips) > 0 {
			return fmt.Errorf("watchdog: %v", trips[0])
		}
	}
	return nil
}

// goldenPath holds the digests of every job at goldenSeed, as workload ->
// job -> digest. Only `go test -update` rewrites it.
const goldenPath = "testdata/golden.json"

// goldenSeed is the seed the committed digests were recorded at.
const goldenSeed = 1

//go:embed testdata/golden.json
var goldenJSON []byte

// golden returns the committed digests.
func golden() (map[string]map[string]string, error) {
	var g map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath, err)
	}
	return g, nil
}
