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
//
// The draws are exactly those of rand.New(rand.NewSource(seed)).Float64,
// one per node per cycle in node order, so results match the
// Float64-per-node loop bit for bit. The injector runs math/rand's
// source itself, a block at a time (refill), and decides each node with
// one integer compare against cut.
type Injector struct {
	pattern Pattern
	nodes   int
	cut     uint64 // a node injects iff its final Int63 draw is below cut
	pos     int    // next unread word of stream
	stream  [streamLen]uint64
	buf     []Injection // reused across Tick calls
}

// math/rand's rngSource is an additive lagged-Fibonacci generator: its
// output n is y[n] = y[n-streamLen] + y[n-streamTap] mod 2^64, and Int63
// is y & int63Mask.
const (
	streamLen = 607
	streamTap = 273
	int63Mask = 1<<63 - 1
	// redrawBound is the smallest Int63 whose quotient float64(x)/(1<<63)
	// rounds to 1, so Float64 draws again for every x >= 2^63-512.
	redrawBound = 1<<63 - 512
)

// NewInjector builds an injector. rate is packets per node per cycle in
// [0, 1]; anything else, NaN included, panics.
func NewInjector(p Pattern, nodes int, rate float64, seed int64) *Injector {
	if !(rate >= 0 && rate <= 1) {
		panic(fmt.Sprintf("traffic: injection rate %v out of [0,1]", rate))
	}
	in := &Injector{pattern: p, nodes: nodes, cut: injectCut(rate)}
	// The first streamLen outputs are both the first draws and the whole
	// generator state; refill continues the stream from them.
	src := rand.NewSource(seed).(rand.Source64)
	for i := range in.stream {
		in.stream[i] = src.Uint64()
	}
	return in
}

// injectCut returns the smallest Int63 x with float64(x)/(1<<63) >= rate,
// so Float64() < rate exactly when x < cut. Rounding is monotone in x, so
// a binary search finds it; rate*2^63 would not, since an x just below a
// representable rate*2^63 can round up to it. At most redrawBound, where
// the quotient is 1: a draw at or above it is redrawn, never final.
func injectCut(rate float64) uint64 {
	lo, hi := uint64(0), uint64(redrawBound)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(int64(mid))/(1<<63) >= rate {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// refill replaces the stream with its next streamLen outputs, in place:
// y[n+607] = y[n] + y[n+334] reads the old block for the first 273 words
// and the new block, 273 words back, for the rest.
func (in *Injector) refill() {
	v := &in.stream
	for k := 0; k < streamTap; k++ {
		v[k] += v[k+streamLen-streamTap]
	}
	for k := streamTap; k < streamLen; k++ {
		v[k] += v[k-streamTap]
	}
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
	cut, span := in.cut, redrawBound-in.cut
	pos := in.pos
	for n := 0; n < in.nodes; {
		if pos == streamLen {
			in.refill()
			pos = 0
		}
		// Skip the idle nodes: draw x stays idle iff cut <= x < redrawBound.
		blk := in.stream[pos:min(streamLen, pos+in.nodes-n)]
		i := 0
		for i < len(blk) && blk[i]&int63Mask-cut < span {
			i++
		}
		n += i
		pos += i
		if i == len(blk) {
			continue
		}
		x := blk[i] & int63Mask
		pos++
		if x >= redrawBound {
			// Float64 would round x to 1 and draw again: node n reads
			// the next word, as a fresh draw.
			continue
		}
		if x < cut {
			src := mesh.NodeID(n)
			if dst := in.pattern.Dest(src); dst != src {
				out = append(out, Injection{Src: src, Dst: dst})
			}
		}
		n++
	}
	in.pos = pos
	in.buf = out
	return out
}
