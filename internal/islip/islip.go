// Package islip implements the iSLIP iterative round-robin scheduling
// algorithm for input-queued switches (McKeown, ToN 1999), used by the
// electrical baseline router for both virtual-channel and switch allocation
// (paper Table 2).
//
// Each iteration performs a grant phase (every unmatched output grants the
// requesting input nearest its round-robin pointer) and an accept phase
// (every input accepts the granting outputs nearest its pointer, up to its
// quota). Pointers advance past granted/accepted positions only for matches
// made in the first iteration, which is what gives iSLIP its desynchronised,
// starvation-free behaviour.
//
// Requests, grants and saturated inputs are 64-bit masks, so an allocator
// has at most 64 inputs and 64 outputs.
package islip

import (
	"fmt"
	"math/bits"
)

// Allocator matches inputs to outputs. The zero value is unusable;
// construct with New. Allocators are stateful: the round-robin pointers
// persist across Match calls, as in hardware.
type Allocator struct {
	inputs, outputs int
	quota           int // max outputs matched to one input per cycle
	iterations      int
	grantPtr        []int // per output, next input to favour
	acceptPtr       []int // per input, next output to favour
	// scratch, reused across calls
	accepted []int    // per input, matches this call; nil at quota 1
	matchIn  []int    // per output, matched input; valid at matched bits
	offers   []uint64 // per input, mask of outputs granting it this iteration
}

// New returns an allocator for the given port counts. quota is the input
// speedup: how many distinct outputs a single input may be matched to in
// one cycle (1 for classic iSLIP, 4 for the baseline router's input
// speedup). iterations is the number of grant/accept rounds per cycle.
// More than 64 inputs or outputs do not fit the request masks and panic.
func New(inputs, outputs, quota, iterations int) *Allocator {
	if inputs < 1 || outputs < 1 || quota < 1 || iterations < 1 || inputs > 64 || outputs > 64 {
		panic(fmt.Sprintf("islip: invalid geometry in=%d out=%d quota=%d iter=%d",
			inputs, outputs, quota, iterations))
	}
	a := &Allocator{
		inputs: inputs, outputs: outputs,
		quota: quota, iterations: iterations,
		grantPtr:  make([]int, outputs),
		acceptPtr: make([]int, inputs),
		matchIn:   make([]int, outputs),
		offers:    make([]uint64, inputs),
	}
	if quota > 1 {
		a.accepted = make([]int, inputs)
	}
	return a
}

// Match computes a matching for the current request pattern: req holds
// one mask per output, and bit in of req[o] set means input in requests
// output o. Bits at or above the input count must be clear. matched has
// bit o set for every matched output, and in[o] is its input; in is valid
// only at matched's bits. No output is matched twice; no input is matched
// more than its quota.
//
// in is the allocator's scratch buffer: it is valid until the next Match
// call and must not be retained or mutated. Match performs no allocation,
// which keeps the electrical router's steady-state cycle loop
// allocation-free.
func (a *Allocator) Match(req []uint64) (matched uint64, in []int) {
	clear(a.accepted)
	var full, pending uint64 // inputs matched up to their quota; outputs still open
	for o, r := range req[:a.outputs] {
		if r != 0 {
			pending |= 1 << o
		}
	}
	for iter := 0; iter < a.iterations && pending != 0; iter++ {
		// Grant phase: each open output picks the first requesting,
		// non-saturated input at or after its pointer. Each output
		// grants at most one input, so the per-input offers are
		// disjoint and the accept phase below is order-independent
		// across inputs.
		var granted uint64
		for p := pending; p != 0; p &= p - 1 {
			o := bits.TrailingZeros64(p)
			if want := req[o] &^ full; want != 0 {
				in := firstFrom(want, a.grantPtr[o])
				a.offers[in] |= 1 << o
				granted |= 1 << in
			}
		}
		// Accept phase: each input takes the granting outputs nearest
		// its pointer, up to its remaining quota. A granted input is
		// unsaturated, so at quota 1 it takes exactly one offer and
		// needs no count beyond full.
		for ; granted != 0; granted &= granted - 1 {
			in := bits.TrailingZeros64(granted)
			offers, left := a.offers[in], 1
			a.offers[in] = 0
			if a.accepted != nil {
				left = a.quota - a.accepted[in]
			}
			for ; offers != 0 && left > 0; left-- {
				o := firstFrom(offers, a.acceptPtr[in])
				offers &^= 1 << o
				matched |= 1 << o
				pending &^= 1 << o
				a.matchIn[o] = in
				if iter == 0 {
					a.grantPtr[o] = (in + 1) % a.inputs
					a.acceptPtr[in] = (o + 1) % a.outputs
				}
			}
			if left == 0 {
				full |= 1 << in
			}
			if a.accepted != nil {
				a.accepted[in] = a.quota - left
			}
		}
	}
	return matched, a.matchIn
}

// firstFrom returns the position of the first set bit of a non-zero mask
// at or after from, wrapping past bit 63 to bit 0.
func firstFrom(mask uint64, from int) int {
	if above := mask >> from << from; above != 0 {
		return bits.TrailingZeros64(above)
	}
	return bits.TrailingZeros64(mask)
}
