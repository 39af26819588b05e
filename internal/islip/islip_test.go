package islip

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// wantFrom builds the per-output request masks of a matrix indexed
// [input][output].
func wantFrom(m [][]bool) []uint64 {
	req := make([]uint64, len(m[0]))
	for in, row := range m {
		for out, want := range row {
			if want {
				req[out] |= 1 << in
			}
		}
	}
	return req
}

// match runs a.Match and rebuilds the per-output form the reference
// allocator returns: each output's matched input, or -1.
func match(a *Allocator, req []uint64) []int {
	matched, in := a.Match(req)
	got := make([]int, a.outputs)
	for o := range got {
		got[o] = -1
		if matched>>o&1 == 1 {
			got[o] = in[o]
		}
	}
	return got
}

// allWant is the request masks of every input wanting every output.
func allWant(inputs, outputs int) []uint64 {
	req := make([]uint64, outputs)
	for o := range req {
		req[o] = 1<<inputs - 1
	}
	return req
}

func TestSingleRequest(t *testing.T) {
	a := New(4, 4, 1, 1)
	m := [][]bool{
		{false, true, false, false},
		{false, false, false, false},
		{false, false, false, false},
		{false, false, false, false},
	}
	got := match(a, wantFrom(m))
	if got[1] != 0 {
		t.Fatalf("match = %v, want output 1 -> input 0", got)
	}
	for _, o := range []int{0, 2, 3} {
		if got[o] != -1 {
			t.Errorf("output %d matched to %d, want -1", o, got[o])
		}
	}
}

func TestFullPermutationMatched(t *testing.T) {
	// All inputs request all outputs: with enough iterations a maximal
	// matching (here perfect) must be found.
	a := New(4, 4, 1, 4)
	got := match(a, allWant(4, 4))
	seen := map[int]bool{}
	for o, in := range got {
		if in < 0 {
			t.Fatalf("output %d unmatched in all-request pattern: %v", o, got)
		}
		if seen[in] {
			t.Fatalf("input %d matched twice: %v", in, got)
		}
		seen[in] = true
	}
}

func TestQuotaRespectedAndUsed(t *testing.T) {
	// One input requesting all 4 outputs with quota 4 gets all of them.
	a := New(2, 4, 4, 4)
	m := [][]bool{
		{true, true, true, true},
		{false, false, false, false},
	}
	got := match(a, wantFrom(m))
	for o, in := range got {
		if in != 0 {
			t.Errorf("output %d -> %d, want 0", o, in)
		}
	}
	// Quota 2 limits it.
	a2 := New(2, 4, 2, 4)
	got2 := match(a2, wantFrom(m))
	count := 0
	for _, in := range got2 {
		if in == 0 {
			count++
		}
	}
	if count != 2 {
		t.Errorf("input 0 matched %d times, want quota 2", count)
	}
}

func TestRoundRobinFairness(t *testing.T) {
	// Two inputs permanently contending for one output should
	// alternate thanks to the pointer updates.
	a := New(2, 1, 1, 1)
	m := [][]bool{{true}, {true}}
	wins := map[int]int{}
	for i := 0; i < 100; i++ {
		got := match(a, wantFrom(m))
		wins[got[0]]++
	}
	if wins[0] != 50 || wins[1] != 50 {
		t.Errorf("wins = %v, want perfect alternation 50/50", wins)
	}
}

func TestDesynchronisation(t *testing.T) {
	// The classic iSLIP property: under persistent uniform requests
	// the pointers desynchronise and throughput reaches 100% (every
	// output matched every cycle) after a warmup.
	a := New(4, 4, 1, 1)
	all := allWant(4, 4)
	for i := 0; i < 8; i++ {
		match(a, all) // warmup
	}
	for i := 0; i < 20; i++ {
		got := match(a, all)
		for o, in := range got {
			if in < 0 {
				t.Fatalf("cycle %d: output %d unmatched after desync: %v", i, o, got)
			}
		}
	}
}

// Property: matchings are always valid - no output double-matched (by
// construction) and no input exceeds quota; matched pairs were requested.
func TestMatchingValidity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := New(6, 5, 2, 3)
	for trial := 0; trial < 500; trial++ {
		m := make([][]bool, 6)
		for i := range m {
			m[i] = make([]bool, 5)
			for j := range m[i] {
				m[i][j] = rng.Intn(3) == 0
			}
		}
		got := match(a, wantFrom(m))
		counts := map[int]int{}
		for o, in := range got {
			if in < 0 {
				continue
			}
			if !m[in][o] {
				t.Fatalf("matched unrequested pair in=%d out=%d", in, o)
			}
			counts[in]++
		}
		for in, c := range counts {
			if c > 2 {
				t.Fatalf("input %d matched %d times, quota 2", in, c)
			}
		}
	}
}

// Property: iSLIP finds a maximal matching given enough iterations - no
// (input, output) pair remains where both are unmatched/unsaturated and a
// request exists.
func TestMaximalWithIterations(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := New(5, 5, 1, 5)
	for trial := 0; trial < 300; trial++ {
		m := make([][]bool, 5)
		for i := range m {
			m[i] = make([]bool, 5)
			for j := range m[i] {
				m[i][j] = rng.Intn(2) == 0
			}
		}
		got := match(a, wantFrom(m))
		matchedIn := map[int]bool{}
		for _, in := range got {
			if in >= 0 {
				matchedIn[in] = true
			}
		}
		for in := 0; in < 5; in++ {
			if matchedIn[in] {
				continue
			}
			for o := 0; o < 5; o++ {
				if got[o] == -1 && m[in][o] {
					t.Fatalf("non-maximal: input %d / output %d both free with request", in, o)
				}
			}
		}
	}
}

func TestNewPanicsOnBadGeometry(t *testing.T) {
	for _, g := range [][4]int{
		{0, 4, 1, 1},
		{65, 4, 1, 1}, // inputs beyond one request mask
		{4, 65, 1, 1}, // outputs beyond one offer mask
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New%v did not panic", g)
				}
			}()
			New(g[0], g[1], g[2], g[3])
		}()
	}
}

// refAllocator is the closure-driven allocator the mask version replaced,
// kept verbatim as the differential reference for TestMatchesReference.
type refAllocator struct {
	inputs, outputs int
	quota           int // max outputs matched to one input per cycle
	iterations      int
	grantPtr        []int // per output, next input to favour
	acceptPtr       []int // per input, next output to favour
	// scratch, reused across calls
	accepted []int   // per input, matches this call
	matchIn  []int   // per output, matched input or -1
	grants   [][]int // per input, outputs granting it this iteration
}

func newRef(inputs, outputs, quota, iterations int) *refAllocator {
	a := &refAllocator{
		inputs: inputs, outputs: outputs,
		quota: quota, iterations: iterations,
		grantPtr:  make([]int, outputs),
		acceptPtr: make([]int, inputs),
		accepted:  make([]int, inputs),
		matchIn:   make([]int, outputs),
		grants:    make([][]int, inputs),
	}
	for i := range a.grants {
		a.grants[i] = make([]int, 0, outputs)
	}
	return a
}

func (a *refAllocator) Match(want func(in, out int) bool) []int {
	for i := range a.accepted {
		a.accepted[i] = 0
	}
	for o := range a.matchIn {
		a.matchIn[o] = -1
	}
	for iter := 0; iter < a.iterations; iter++ {
		// Grant phase: each unmatched output picks the first
		// requesting, non-saturated input at or after its pointer.
		// Each output grants at most one input, so the per-input
		// grant lists are disjoint and the accept phase below is
		// order-independent across inputs.
		for i := range a.grants {
			a.grants[i] = a.grants[i][:0]
		}
		granted := false
		for o := 0; o < a.outputs; o++ {
			if a.matchIn[o] >= 0 {
				continue
			}
			for k := 0; k < a.inputs; k++ {
				in := (a.grantPtr[o] + k) % a.inputs
				if a.accepted[in] >= a.quota || !want(in, o) {
					continue
				}
				a.grants[in] = append(a.grants[in], o)
				granted = true
				break
			}
		}
		if !granted {
			break
		}
		// Accept phase: each input takes the granting outputs
		// nearest its pointer, up to its remaining quota.
		for in := 0; in < a.inputs; in++ {
			outs := a.grants[in]
			if len(outs) == 0 {
				continue
			}
			take := a.quota - a.accepted[in]
			if take > len(outs) {
				take = len(outs)
			}
			for t := 0; t < take; t++ {
				best, bestDist := -1, a.outputs+1
				for _, o := range outs {
					if a.matchIn[o] >= 0 {
						continue
					}
					d := (o - a.acceptPtr[in] + a.outputs) % a.outputs
					if d < bestDist {
						best, bestDist = o, d
					}
				}
				if best < 0 {
					break
				}
				a.matchIn[best] = in
				a.accepted[in]++
				if iter == 0 {
					a.grantPtr[best] = (in + 1) % a.inputs
					a.acceptPtr[in] = (best + 1) % a.outputs
				}
			}
		}
	}
	return a.matchIn
}

// randomRequests fills req with a random pattern over inputs: either an
// independent mask per output at a random density, or the electrical VC
// allocator's shape, where every free output sees the same request mask.
// Empty patterns occur too, to pin that requestless calls move no pointer.
func randomRequests(rng *rand.Rand, req []uint64, inputs int) {
	density := []int{0, 3, 10, 25, 50, 90}[rng.Intn(6)]
	mask := func() uint64 {
		var m uint64
		for in := 0; in < inputs; in++ {
			if rng.Intn(100) < density {
				m |= 1 << in
			}
		}
		return m
	}
	if rng.Intn(2) == 0 {
		for o := range req {
			req[o] = mask()
		}
		return
	}
	shared := mask()
	for o := range req {
		req[o] = 0
		if rng.Intn(2) == 0 {
			req[o] = shared
		}
	}
}

// TestMatchesReference runs the mask allocator in lockstep with the
// closure reference over random request streams, carrying the pointers
// across calls, and requires identical matchings and pointer state after
// every call.
func TestMatchesReference(t *testing.T) {
	type geometry struct{ inputs, outputs, quota, iterations, trials int }
	geos := []geometry{
		{50, 10, 1, 2, 50000}, // electrical VC allocator
		{5, 4, 4, 2, 50000},   // electrical switch allocator
		{1, 1, 1, 1, 2000},
		{1, 1, 3, 5, 1000},
	}
	for iter := 1; iter <= 5; iter++ {
		geos = append(geos, geometry{64, 64, 1, iter, 1000}, geometry{64, 64, 3, iter, 500})
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 20; i++ {
		geos = append(geos, geometry{1 + rng.Intn(64), 1 + rng.Intn(64), 1 + rng.Intn(4), 1 + rng.Intn(5), 300})
	}
	for _, g := range geos {
		name := fmt.Sprintf("%dx%d/q%d/i%d", g.inputs, g.outputs, g.quota, g.iterations)
		t.Run(name, func(t *testing.T) {
			a := New(g.inputs, g.outputs, g.quota, g.iterations)
			ref := newRef(g.inputs, g.outputs, g.quota, g.iterations)
			req := make([]uint64, g.outputs)
			want := func(in, out int) bool { return req[out]>>in&1 == 1 }
			for trial := 0; trial < g.trials; trial++ {
				randomRequests(rng, req, g.inputs)
				got := match(a, req)
				exp := ref.Match(want)
				if !slices.Equal(got, exp) || !slices.Equal(a.grantPtr, ref.grantPtr) ||
					!slices.Equal(a.acceptPtr, ref.acceptPtr) {
					t.Fatalf("trial %d, req %x:\nmatch %v, want %v\ngrantPtr %v, want %v\nacceptPtr %v, want %v",
						trial, req, got, exp, a.grantPtr, ref.grantPtr, a.acceptPtr, ref.acceptPtr)
				}
			}
		})
	}
}
