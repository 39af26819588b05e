package sim_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"phastlane/internal/coherence"
	"phastlane/internal/core"
	"phastlane/internal/electrical"
	"phastlane/internal/mesh"
	"phastlane/internal/packet"
	"phastlane/internal/sim"
	"phastlane/internal/trace"
)

// callLog wraps a network and records its NICFree and Inject calls in
// order, so two replay loops can be compared call for call. It forwards
// the loss handler, so replays with losses resolve as they do unwrapped.
type callLog struct {
	sim.Network
	calls []string
}

func (c *callLog) NICFree(n mesh.NodeID) int {
	c.calls = append(c.calls, fmt.Sprint("free ", n))
	return c.Network.NICFree(n)
}

func (c *callLog) Inject(m sim.Message) {
	c.calls = append(c.calls, fmt.Sprint("inject ", m.ID, " ", len(m.Dsts)))
	c.Network.Inject(m)
}

func (c *callLog) SetLossHandler(h func(sim.Loss)) {
	if lr, ok := c.Network.(sim.LossReporting); ok {
		lr.SetLossHandler(h)
	}
}

// randomTrace builds a 64-node trace with random dependencies and think
// times, EarliestCycle gaps, and one broadcast in five.
func randomTrace(seed int64, msgs int) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	ops := []packet.Op{packet.OpReadReq, packet.OpWriteReq, packet.OpDataReply, packet.OpWriteback}
	tr := &trace.Trace{Nodes: 64}
	for id := uint64(1); id <= uint64(msgs); id++ {
		m := trace.Message{
			ID:    id,
			Src:   mesh.NodeID(rng.Intn(64)),
			Op:    ops[rng.Intn(len(ops))],
			Think: int64(rng.Intn(20)),
		}
		m.Dst = mesh.NodeID((int(m.Src) + 1 + rng.Intn(63)) % 64)
		if rng.Intn(5) == 0 {
			m.Dst = trace.Broadcast
		}
		if id > 1 && rng.Intn(10) < 7 {
			m.Dep = uint64(1 + rng.Intn(int(id-1)))
		}
		if rng.Intn(10) < 3 {
			m.EarliestCycle = int64(rng.Intn(400))
		}
		tr.Messages = append(tr.Messages, m)
	}
	return tr
}

// TestRunTraceMatchesRescan replays generated traces through RunTrace and
// through the rescan loop it replaced, on both kernels, and requires equal
// results and identical NICFree/Inject call sequences. One-entry NICs
// force messages to wait behind a full NIC; the retry-limited optical
// configuration loses messages, whose dependents must still proceed.
func TestRunTraceMatchesRescan(t *testing.T) {
	type namedTrace struct {
		name string
		tr   *trace.Trace
	}
	var traces []namedTrace
	for seed := int64(1); seed <= 3; seed++ {
		traces = append(traces, namedTrace{fmt.Sprint("random-", seed), randomTrace(seed, 600)})
	}
	for _, proto := range []coherence.Protocol{coherence.Snoopy, coherence.DirectoryMSI} {
		p, err := coherence.BenchmarkByName("Ocean")
		if err != nil {
			t.Fatal(err)
		}
		p.Messages, p.Protocol = 600, proto
		tr, err := coherence.GenerateTrace(p, coherence.DefaultConfig(), 5)
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, namedTrace{"ocean-" + proto.String(), tr})
	}
	nets := []struct {
		name  string
		build func() sim.Network
	}{
		{"optical-nic1", func() sim.Network {
			cfg := core.DefaultConfig()
			cfg.NICEntries = 1
			return core.New(cfg)
		}},
		{"optical-lossy", func() sim.Network {
			cfg := core.DefaultConfig()
			cfg.BufferEntries, cfg.RetryLimit = 1, 1
			return core.New(cfg)
		}},
		{"electrical-nic1", func() sim.Network {
			cfg := electrical.DefaultConfig()
			cfg.NICEntries = 1
			return electrical.New(cfg)
		}},
	}
	var fullNICs, lost int64
	for _, tc := range traces {
		for _, nc := range nets {
			t.Run(tc.name+"/"+nc.name, func(t *testing.T) {
				heap, rescan := &callLog{Network: nc.build()}, &callLog{Network: nc.build()}
				got, err := sim.RunTrace(heap, tc.tr, sim.ReplayConfig{})
				if err != nil {
					t.Fatal(err)
				}
				want, err := sim.RunTraceRescan(rescan, tc.tr, sim.ReplayConfig{})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("results differ:\nheap   %+v\nrescan %+v", got, want)
				}
				if !slices.Equal(heap.calls, rescan.calls) {
					t.Errorf("call sequences differ: %d vs %d calls", len(heap.calls), len(rescan.calls))
				}
				if got.Run.Injected != int64(len(tc.tr.Messages)) || got.Run.Delivered+got.Lost != got.Run.Injected {
					t.Errorf("replay resolved %d+%d of %d messages", got.Run.Delivered, got.Lost, len(tc.tr.Messages))
				}
				// Every call but an Inject is a NICFree; each injection
				// takes one, the rest found the NIC full.
				fullNICs += int64(len(heap.calls)) - 2*got.Run.Injected
				lost += got.Lost
			})
		}
	}
	if fullNICs == 0 || lost == 0 {
		t.Errorf("suite exercised %d full-NIC checks and %d losses, want both", fullNICs, lost)
	}
}
