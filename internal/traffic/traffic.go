// Package traffic provides the synthetic workloads of the paper's Fig. 9:
// bit-complement, bit-reverse, shuffle, and transpose permutation patterns,
// plus uniform-random and nearest-neighbour generators, each driven by a
// Bernoulli injection process at a configurable rate.
package traffic

import (
	"fmt"
	"math/rand"

	"phastlane/internal/mesh"
)

// Pattern maps a source node to its destination for permutation traffic.
type Pattern interface {
	// Name identifies the pattern in reports.
	Name() string
	// Dest returns the destination for packets injected at src. For
	// randomised patterns it may differ per call.
	Dest(src mesh.NodeID) mesh.NodeID
}

// bitPattern implements the classic bit-permutation patterns over the
// node-index bits. nodeBits is log2(nodes).
type bitPattern struct {
	name     string
	nodeBits uint
	permute  func(idx, bits uint) uint
}

func (p *bitPattern) Name() string { return p.name }

func (p *bitPattern) Dest(src mesh.NodeID) mesh.NodeID {
	return mesh.NodeID(p.permute(uint(src), p.nodeBits))
}

// log2 returns log2(n) for exact powers of two and panics otherwise: the
// bit-permutation patterns are only defined on power-of-two networks.
func log2(n int) uint {
	bits := uint(0)
	for v := n; v > 1; v >>= 1 {
		bits++
	}
	if 1<<bits != n {
		panic(fmt.Sprintf("traffic: node count %d is not a power of two", n))
	}
	return bits
}

// BitComplement returns the pattern dst = ~src (per-bit complement).
func BitComplement(nodes int) Pattern {
	return &bitPattern{
		name:     "BitComp",
		nodeBits: log2(nodes),
		permute: func(idx, bits uint) uint {
			return (^idx) & ((1 << bits) - 1)
		},
	}
}

// BitReverse returns the pattern that reverses the node-index bits.
func BitReverse(nodes int) Pattern {
	return &bitPattern{
		name:     "BitRev",
		nodeBits: log2(nodes),
		permute: func(idx, bits uint) uint {
			var out uint
			for i := uint(0); i < bits; i++ {
				if idx&(1<<i) != 0 {
					out |= 1 << (bits - 1 - i)
				}
			}
			return out
		},
	}
}

// Shuffle returns the perfect-shuffle pattern: rotate the index bits left
// by one.
func Shuffle(nodes int) Pattern {
	return &bitPattern{
		name:     "Shuffle",
		nodeBits: log2(nodes),
		permute: func(idx, bits uint) uint {
			mask := uint(1<<bits) - 1
			return ((idx << 1) | (idx >> (bits - 1))) & mask
		},
	}
}

// Transpose returns the matrix-transpose pattern: swap the high and low
// halves of the index bits (on the mesh, (x,y) -> (y,x)).
func Transpose(nodes int) Pattern {
	return &bitPattern{
		name:     "Transpose",
		nodeBits: log2(nodes),
		permute: func(idx, bits uint) uint {
			half := bits / 2
			lo := idx & ((1 << half) - 1)
			hi := idx >> half
			return (lo << half) | hi
		},
	}
}

// UniformRandom returns a pattern that picks a uniformly random destination
// different from the source.
func UniformRandom(nodes int, seed int64) Pattern {
	return &uniformPattern{nodes: nodes, rng: rand.New(rand.NewSource(seed))}
}

type uniformPattern struct {
	nodes int
	rng   *rand.Rand
}

func (p *uniformPattern) Name() string { return "Uniform" }

func (p *uniformPattern) Dest(src mesh.NodeID) mesh.NodeID {
	for {
		d := mesh.NodeID(p.rng.Intn(p.nodes))
		if d != src {
			return d
		}
	}
}

// Patterns returns the four Fig. 9 patterns for the given node count in
// paper order.
func Patterns(nodes int) []Pattern {
	return []Pattern{
		BitComplement(nodes),
		BitReverse(nodes),
		Shuffle(nodes),
		Transpose(nodes),
	}
}

// Injector generates packets with Bernoulli timing: each node independently
// injects with probability Rate each cycle.
type Injector struct {
	pattern Pattern
	nodes   int
	rate    float64
	rng     *rand.Rand
	buf     []Injection // reused across Tick calls
}

// NewInjector builds an injector. rate is packets per node per cycle in
// [0, 1]; anything else, NaN included, panics.
func NewInjector(p Pattern, nodes int, rate float64, seed int64) *Injector {
	if !(rate >= 0 && rate <= 1) {
		panic(fmt.Sprintf("traffic: injection rate %v out of [0,1]", rate))
	}
	return &Injector{pattern: p, nodes: nodes, rate: rate, rng: rand.New(rand.NewSource(seed))}
}

// Injection describes one generated packet.
type Injection struct {
	Src, Dst mesh.NodeID
}

// Tick returns the injections for one cycle. Self-directed permutation
// slots (e.g. transpose's diagonal) are skipped, as is conventional.
//
// The returned slice is the injector's scratch buffer: it is valid until
// the next Tick call and must not be retained. Steady-state ticks do not
// allocate.
func (in *Injector) Tick() []Injection {
	out := in.buf[:0]
	for n := 0; n < in.nodes; n++ {
		if in.rng.Float64() >= in.rate {
			continue
		}
		src := mesh.NodeID(n)
		dst := in.pattern.Dest(src)
		if dst == src {
			continue
		}
		out = append(out, Injection{Src: src, Dst: dst})
	}
	in.buf = out
	return out
}
