package sim_test

// Benchmarks for the mesh-size scaling story: each event-driven kernel
// against its dense-walk reference at low injection rates, where idle
// routers dominate and the active set should keep per-cycle cost
// proportional to traffic, not mesh area. The sparse-large workload in
// benchmark/ times the same regime end to end on 32×32 and 64×64; these
// benchmarks are the profiling form and the only event-vs-dense
// comparison, for both the electrical and the optical kernel
// (go test -bench KernelLowRate -cpuprofile …). The optical kernel also
// runs alone at 64×64, the largest sparse-large mesh, where a cost that
// grows faster than the wavefront shows first.

import (
	"fmt"
	"testing"

	"phastlane/internal/core"
	"phastlane/internal/electrical"
	"phastlane/internal/mesh"
	"phastlane/internal/packet"
	"phastlane/internal/sim"
	"phastlane/internal/traffic"
)

// benchCycles drives net under uniform-random load at rate for b.N
// inject+Step cycles after a pool-warming phase.
func benchCycles(b *testing.B, net sim.Network, rate float64, warmup int) {
	inj := traffic.NewInjector(traffic.UniformRandom(net.Nodes(), 1), net.Nodes(), rate, 2)
	var id uint64
	var buf []sim.Delivery
	dsts := make([]mesh.NodeID, 1)
	cycle := func() {
		for _, in := range inj.Tick() {
			if net.NICFree(in.Src) > 0 {
				id++
				dsts[0] = in.Dst
				net.Inject(sim.Message{ID: id, Src: in.Src, Dsts: dsts, Op: packet.OpSynthetic})
			}
		}
		buf = net.Step(buf[:0])
	}
	for i := 0; i < warmup; i++ {
		cycle()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

func BenchmarkKernelLowRate(b *testing.B) {
	const rate = 0.002
	for _, size := range []int{8, 16, 32} {
		warmup := 500 + size*size/2
		b.Run(fmt.Sprintf("electrical-event-%dx%d", size, size), func(b *testing.B) {
			cfg := electrical.DefaultConfig()
			cfg.Width, cfg.Height = size, size
			benchCycles(b, electrical.New(cfg), rate, warmup)
		})
		b.Run(fmt.Sprintf("electrical-dense-%dx%d", size, size), func(b *testing.B) {
			cfg := electrical.DefaultConfig()
			cfg.Width, cfg.Height = size, size
			benchCycles(b, electrical.NewReference(cfg), rate, warmup)
		})
		b.Run(fmt.Sprintf("optical-event-%dx%d", size, size), func(b *testing.B) {
			benchOptical(b, size, rate, warmup)
		})
		b.Run(fmt.Sprintf("optical-dense-%dx%d", size, size), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Width, cfg.Height = size, size
			benchCycles(b, core.NewReference(cfg), rate, warmup)
		})
	}
	b.Run("optical-event-64x64", func(b *testing.B) { benchOptical(b, 64, rate, 500+64*64/2) })
}

// benchOptical times the event-driven optical kernel on a size×size mesh.
func benchOptical(b *testing.B, size int, rate float64, warmup int) {
	cfg := core.DefaultConfig()
	cfg.Width, cfg.Height = size, size
	benchCycles(b, core.New(cfg), rate, warmup)
}
