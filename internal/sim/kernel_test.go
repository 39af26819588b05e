package sim_test

import (
	"fmt"
	"strings"
	"testing"

	"phastlane/internal/core"
	"phastlane/internal/electrical"
	"phastlane/internal/mesh"
	"phastlane/internal/packet"
	"phastlane/internal/sim"
	"phastlane/internal/traffic"
)

// TestInjectPanicNamesNodeAndFreeCount pins the NICFree-then-Inject
// contract on every simulator: injecting into a full NIC panics, and the
// message names the offending node, reports the free-entry count, and
// points the caller at NICFree.
func TestInjectPanicNamesNodeAndFreeCount(t *testing.T) {
	for _, tc := range []struct {
		name string
		net  sim.Network
	}{
		{"optical", optical()},
		{"electrical", baseline()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := tc.net
			var id uint64
			for net.NICFree(0) > 0 {
				id++
				net.Inject(sim.Message{ID: id, Src: 0, Dsts: []mesh.NodeID{1}, Op: packet.OpSynthetic})
			}
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("inject into full NIC did not panic")
				}
				msg := fmt.Sprint(r)
				for _, want := range []string{"node 0", "0 free entries", "NICFree"} {
					if !strings.Contains(msg, want) {
						t.Errorf("panic %q does not mention %q", msg, want)
					}
				}
			}()
			id++
			net.Inject(sim.Message{ID: id, Src: 0, Dsts: []mesh.NodeID{1}, Op: packet.OpSynthetic})
		})
	}
}

// stepZeroAlloc drives net under sustained uniform-random load past
// warmup, then asserts that further inject+Step cycles allocate nothing:
// the steady-state kernel must run entirely from pools, scratch slices,
// caches, and the caller-owned delivery buffer. With bcastEvery > 0 every
// bcastEvery-th injection is a full broadcast instead, and warmup begins
// with one broadcast from every node, so each source's multicast routes
// are built before the count.
func stepZeroAlloc(t *testing.T, net sim.Network, warmup, bcastEvery int) {
	t.Helper()
	inj := traffic.NewInjector(traffic.UniformRandom(net.Nodes(), 1), net.Nodes(), 0.05, 2)
	var id uint64
	var buf []sim.Delivery
	dsts := make([]mesh.NodeID, 0, net.Nodes())
	broadcast := func(src mesh.NodeID) {
		dsts = dsts[:0]
		for n := mesh.NodeID(0); int(n) < net.Nodes(); n++ {
			if n != src {
				dsts = append(dsts, n)
			}
		}
		id++
		net.Inject(sim.Message{ID: id, Src: src, Dsts: dsts, Op: packet.OpReadReq})
	}
	cycle := func() {
		for _, in := range inj.Tick() {
			if net.NICFree(in.Src) <= 0 {
				continue
			}
			if bcastEvery > 0 && id%uint64(bcastEvery) == 0 {
				broadcast(in.Src)
				continue
			}
			id++
			dsts = append(dsts[:0], in.Dst)
			net.Inject(sim.Message{ID: id, Src: in.Src, Dsts: dsts, Op: packet.OpSynthetic})
		}
		buf = net.Step(buf[:0])
	}
	if bcastEvery > 0 {
		for n := mesh.NodeID(0); int(n) < net.Nodes(); n++ {
			broadcast(n)
			buf = net.Step(buf[:0])
		}
	}
	for i := 0; i < warmup; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Errorf("warmed-up inject+Step allocates %.2f times per cycle, want 0", allocs)
	}
}

func TestOpticalStepZeroAlloc(t *testing.T) {
	stepZeroAlloc(t, core.New(core.DefaultConfig()), 500, 0)
}

func TestElectricalStepZeroAlloc(t *testing.T) {
	stepZeroAlloc(t, electrical.New(electrical.DefaultConfig()), 500, 0)
}

// TestBroadcastStepZeroAlloc extends the contract to broadcasts on both
// 8×8 kernels: an optical broadcast reuses its source's cached column
// sweeps, and an electrical one its source's cached VCTM tree.
func TestBroadcastStepZeroAlloc(t *testing.T) {
	t.Run("optical", func(t *testing.T) {
		stepZeroAlloc(t, core.New(core.DefaultConfig()), 500, 16)
	})
	t.Run("electrical", func(t *testing.T) {
		stepZeroAlloc(t, electrical.New(electrical.DefaultConfig()), 500, 16)
	})
}

// TestElectricalStepZeroAlloc32 holds the zero-allocation contract on a
// 32×32 mesh: the event-driven kernel's active-set maintenance (merge,
// scratch arrays, pools) must stay allocation-free once the in-flight
// population stabilises, not just at the 8×8 size the pools grew up on.
func TestElectricalStepZeroAlloc32(t *testing.T) {
	cfg := electrical.DefaultConfig()
	cfg.Width, cfg.Height = 32, 32
	stepZeroAlloc(t, electrical.New(cfg), 800, 0)
}

// TestOpticalStepZeroAlloc32 is the same contract for the optical kernel
// on a 32×32 mesh: the parcel and flight free lists and the walk scratch
// must stop growing once the in-flight population stabilises. 64×64 takes
// minutes at this rate; the sparse-large benchmark workload reports its
// allocs_per_cycle.
func TestOpticalStepZeroAlloc32(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Width, cfg.Height = 32, 32
	stepZeroAlloc(t, core.New(cfg), 800, 0)
}
