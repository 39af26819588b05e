package traffic

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"phastlane/internal/mesh"
)

// referenceInjector is the Float64 loop Injector replaced: one
// rand.Rand.Float64 per node per cycle. Injector must make exactly its
// draws and return exactly its injections.
type referenceInjector struct {
	pattern Pattern
	nodes   int
	rate    float64
	rng     *rand.Rand
	buf     []Injection
}

func newReferenceInjector(p Pattern, nodes int, rate float64, src rand.Source) *referenceInjector {
	return &referenceInjector{pattern: p, nodes: nodes, rate: rate, rng: rand.New(src)}
}

func (in *referenceInjector) Tick() []Injection {
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

// checkTicks runs in and ref side by side and fails at the first cycle
// whose injections differ.
func checkTicks(t *testing.T, in *Injector, ref *referenceInjector, cycles int) {
	t.Helper()
	for c := 0; c < cycles; c++ {
		got, want := in.Tick(), ref.Tick()
		if !slices.Equal(got, want) {
			t.Fatalf("cycle %d: Tick = %v, reference = %v", c, got, want)
		}
	}
}

// The stream is math/rand's: block by block, the buffer words are the
// source's Int63 outputs in order, across seeds NewSource reduces mod
// 2^31-1 (and maps 0 to a fixed seed).
func TestInjectorStreamMatchesMathRand(t *testing.T) {
	const draws = 1_000_000
	for _, seed := range []int64{0, 1, -1, 1 << 40, math.MaxInt64} {
		in := NewInjector(Transpose(64), 64, 0.5, seed)
		ref := rand.NewSource(seed)
		for n := 0; n < draws; {
			for _, w := range in.stream {
				if got, want := int64(w&int63Mask), ref.Int63(); got != want {
					t.Fatalf("seed %d draw %d: stream %d, math/rand %d", seed, n, got, want)
				}
				n++
			}
			in.refill()
		}
	}
}

// Tick equals the Float64 loop at node counts around the block edges
// (607 words) and at rates from 0 through the smallest positive float
// and 1-2^-53 to 1.
func TestInjectorMatchesReference(t *testing.T) {
	const cycles = 1000
	patterns := map[string]func(seed int64) Pattern{
		"Uniform":   func(seed int64) Pattern { return UniformRandom(4096, seed) },
		"Transpose": func(int64) Pattern { return Transpose(4096) },
	}
	for name, pattern := range patterns {
		for _, nodes := range []int{1, 63, 64, 606, 607, 608, 4096} {
			for _, rate := range []float64{0, 5e-324, 0.002, 0.1, 0.4, 1 - 0x1p-53, 1} {
				t.Run(fmt.Sprintf("%s/%d/%v", name, nodes, rate), func(t *testing.T) {
					in := NewInjector(pattern(7), nodes, rate, 11)
					ref := newReferenceInjector(pattern(7), nodes, rate, rand.NewSource(11))
					checkTicks(t, in, ref, cycles)
				})
			}
		}
	}
}

// scriptSource replays words as a rand.Source and continues them with
// math/rand's recurrence y[n] = y[n-607] + y[n-273], one word at a time,
// as rngSource.Uint64 does.
type scriptSource struct {
	words []uint64
	n     int
}

func (s *scriptSource) Int63() int64 {
	if s.n == len(s.words) {
		s.words = append(s.words, s.words[s.n-streamLen]+s.words[s.n-streamTap])
	}
	w := s.words[s.n]
	s.n++
	return int64(w & int63Mask)
}

func (s *scriptSource) Seed(int64) { panic("scriptSource: Seed") }

// A real seed redraws with probability 2^-54 per draw, so the words
// either side of cut and of the redraw bound are planted: mid-block, and
// in every rotation ending on the block's last word, where a redraw
// reads the next block. The top bit, which Int63 masks off, is set on
// half of the placements.
func TestInjectorScriptedWords(t *testing.T) {
	for _, rate := range []float64{0, 5e-324, 0.002, 0.5, 1 - 0x1p-53, 1} {
		cut := injectCut(rate)
		words := []uint64{cut - 1, cut, 1<<63 - 513, 1<<63 - 512, 1<<63 - 1}
		type plant struct {
			at    int
			words []uint64
		}
		var plants []plant
		for r := range words {
			rotated := append(slices.Clone(words[r:]), words[:r]...)
			plants = append(plants, plant{streamLen - len(words), rotated})
		}
		plants = append(plants, plant{300, words})
		for _, nodes := range []int{1, 64, 607} {
			for pi, pl := range plants {
				for _, top := range []uint64{0, 1 << 63} {
					t.Run(fmt.Sprintf("%v/%d/%d/%x", rate, nodes, pi, top), func(t *testing.T) {
						in := NewInjector(Transpose(4096), nodes, rate, 5)
						for i, w := range pl.words {
							in.stream[pl.at+i] = w | top
						}
						src := &scriptSource{words: slices.Clone(in.stream[:])}
						ref := newReferenceInjector(Transpose(4096), nodes, rate, src)
						// Three blocks' worth of draws: past the plant and a refill.
						checkTicks(t, in, ref, 3*streamLen/nodes+1)
					})
				}
			}
		}
	}
}

// injectCut is the threshold Float64 implies: every x below it reads
// below rate, and cut itself does not (unless cut is the redraw bound).
func TestInjectCut(t *testing.T) {
	f := func(x uint64) float64 { return float64(int64(x)) / (1 << 63) }
	for _, rate := range []float64{0, 5e-324, 0x1p-63, 0x1p-62 + 0x1p-120, 0.002, 0.1, 0.5, 1 - 0x1p-53, 1} {
		cut := injectCut(rate)
		if cut > redrawBound {
			t.Fatalf("rate %v: cut %d above the redraw bound", rate, cut)
		}
		if cut > 0 && f(cut-1) >= rate {
			t.Errorf("rate %v: draw cut-1 = %d reads %v, not below rate", rate, cut-1, f(cut-1))
		}
		if cut < redrawBound && f(cut) < rate {
			t.Errorf("rate %v: draw cut = %d reads %v, below rate", rate, cut, f(cut))
		}
	}
	if f(redrawBound) != 1 || f(redrawBound-1) == 1 {
		t.Errorf("redraw bound %d is not the smallest draw Float64 rounds to 1", uint64(redrawBound))
	}
	if got := injectCut(1); got != redrawBound {
		t.Errorf("injectCut(1) = %d, want the redraw bound %d", got, uint64(redrawBound))
	}
	// 0.5*2^63 is representable, and the 256 draws below it round up to it.
	if got, want := injectCut(0.5), uint64(1<<62-256); got != want {
		t.Errorf("injectCut(0.5) = %d, want %d", got, want)
	}
}

// Steady-state ticks allocate nothing, sparse and busy.
func TestInjectorTickZeroAlloc(t *testing.T) {
	for _, c := range []struct {
		nodes int
		rate  float64
	}{{4096, 0.002}, {64, 0.4}} {
		in := NewInjector(UniformRandom(c.nodes, 1), c.nodes, c.rate, 2)
		for i := 0; i < 1000; i++ {
			in.Tick()
		}
		if allocs := testing.AllocsPerRun(200, func() { in.Tick() }); allocs != 0 {
			t.Errorf("%d nodes at %v: Tick allocates %v per call", c.nodes, c.rate, allocs)
		}
	}
}

func FuzzInjectorMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, rate float64, nodes uint16) {
		if !(rate >= 0 && rate <= 1) {
			t.Skip()
		}
		in := NewInjector(UniformRandom(1<<16, seed), int(nodes), rate, seed)
		ref := newReferenceInjector(UniformRandom(1<<16, seed), int(nodes), rate, rand.NewSource(seed))
		checkTicks(t, in, ref, 4)
	})
}

var tickSink []Injection

func BenchmarkInjectorTick(b *testing.B) {
	for _, c := range []struct {
		nodes int
		rate  float64
	}{{64, 0.02}, {64, 0.40}, {4096, 0.002}} {
		b.Run(fmt.Sprintf("%d/%v", c.nodes, c.rate), func(b *testing.B) {
			in := NewInjector(UniformRandom(c.nodes, 1), c.nodes, c.rate, 2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tickSink = in.Tick()
			}
		})
	}
}
