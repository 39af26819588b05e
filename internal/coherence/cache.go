// Package coherence implements the workload substrate behind the paper's
// SPLASH2 evaluation (Section 4, Tables 3 and 4): a 64-core snoopy
// cache-coherent system - private L1 data and L2 caches per core, MSI
// states over broadcast requests, line-interleaved memory controllers -
// driven by per-benchmark synthetic address streams. Running a workload
// produces a dependency-carrying packet trace (package trace) that both the
// Phastlane and electrical simulators replay, mirroring the paper's
// methodology of feeding both simulators identical SESC-generated traces.
//
// Substitution note (see DESIGN.md): the paper generated traces with the
// SESC full-system simulator running SPLASH2 binaries. This package
// replaces the cores with parameterised reference generators (working-set
// size, sharing degree, write fraction, memory-level parallelism,
// burstiness) in front of a real cache hierarchy and coherence protocol, so
// the network observes structurally identical traffic: broadcast miss
// requests, cache-to-cache and memory-controller data replies, upgrades,
// and writebacks, with per-core dependency chains pacing injection.
package coherence

import (
	"fmt"
	"math/bits"
)

// Config describes the per-node cache hierarchy and memory, matching the
// paper's simulated parameters (Table 4).
type Config struct {
	Cores int
	// L1: 32 KB, 4-way, 32 B blocks.
	L1SizeBytes, L1Ways, L1BlockBytes int
	// L2: 256 KB, 16-way, 64 B blocks (the coherence unit).
	L2SizeBytes, L2Ways, L2BlockBytes int
	// MemLatency is the memory-controller access time in cycles.
	MemLatency int
	// SnoopLatency is the cache-to-cache supply time in cycles.
	SnoopLatency int
}

// DefaultConfig returns the Table 4 parameters for a 64-node system.
func DefaultConfig() Config {
	return Config{
		Cores:       64,
		L1SizeBytes: 32 << 10, L1Ways: 4, L1BlockBytes: 32,
		L2SizeBytes: 256 << 10, L2Ways: 16, L2BlockBytes: 64,
		MemLatency:   80,
		SnoopLatency: 4,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Cores < 2 {
		return fmt.Errorf("coherence: %d cores", c.Cores)
	}
	for _, g := range []struct {
		name              string
		size, ways, block int
	}{
		{"L1", c.L1SizeBytes, c.L1Ways, c.L1BlockBytes},
		{"L2", c.L2SizeBytes, c.L2Ways, c.L2BlockBytes},
	} {
		if g.size < 1 || g.ways < 1 || g.block < 1 {
			return fmt.Errorf("coherence: %s geometry %d/%d/%d", g.name, g.size, g.ways, g.block)
		}
		if g.block&(g.block-1) != 0 {
			return fmt.Errorf("coherence: %s block of %d B not a power of two", g.name, g.block)
		}
		if g.ways > maxWays {
			return fmt.Errorf("coherence: %s has %d ways, more than %d", g.name, g.ways, maxWays)
		}
		sets := g.size / (g.ways * g.block)
		if sets < 1 || sets&(sets-1) != 0 {
			return fmt.Errorf("coherence: %s set count %d not a power of two", g.name, sets)
		}
	}
	if c.MemLatency < 1 || c.SnoopLatency < 1 {
		return fmt.Errorf("coherence: latencies %d/%d", c.MemLatency, c.SnoopLatency)
	}
	return nil
}

// lineState is the MSI coherence state of a cached line.
type lineState uint8

const (
	invalid lineState = iota
	shared
	modified
)

// maxWays is the most ways a set can hold: its recency word has one 4-bit
// field per way.
const maxWays = 16

// cache is a set-associative, write-back, LRU cache in two flat tables.
// keys[set*ways+w] is way w's line number (address >> blockBits, which must
// be below 2^62) shifted left by two and or'd with its lineState; a way
// whose state is invalid is free. lru[set] is the set's recency word:
// field i (bits 4i to 4i+3) names a way, from the least recently used in
// field 0 to the most recently used in field ways-1. A hit, a fill or a
// setState moves its way to the top field; an invalidation leaves the
// word alone.
type cache struct {
	keys      []uint64
	lru       []uint64
	ways      int
	blockBits uint
	setMask   uint64
}

// newCache builds a cache from size/ways/block geometry; Config.Validate
// admits only geometries it models: power-of-two block and set counts and
// at most maxWays ways.
func newCache(sizeBytes, ways, blockBytes int) *cache {
	sets := sizeBytes / (ways * blockBytes)
	c := &cache{
		keys:      make([]uint64, sets*ways),
		lru:       make([]uint64, sets),
		ways:      ways,
		blockBits: uint(bits.TrailingZeros(uint(blockBytes))),
		setMask:   uint64(sets - 1),
	}
	var word uint64
	for w := 0; w < ways; w++ {
		word |= uint64(w) << (4 * w)
	}
	for s := range c.lru {
		c.lru[s] = word
	}
	return c
}

// find returns addr's set and the index into keys of the way holding it,
// or -1.
func (c *cache) find(addr uint64) (set, at int) {
	line := addr >> c.blockBits
	set = int(line & c.setMask)
	base := set * c.ways
	for i, k := range c.keys[base : base+c.ways] {
		if k>>2 == line && k&3 != uint64(invalid) {
			return set, base + i
		}
	}
	return set, -1
}

// touch makes way w the most recently used of set.
func (c *cache) touch(set, w int) {
	word := c.lru[set]
	// x's fields are zero exactly where word names w. Subtracting 1 from
	// every field flags a zero field's top bit; the borrow out of it can
	// flag fields above it too, but none below, so the lowest flag is w's.
	x := word ^ (0x1111_1111_1111_1111 * uint64(w))
	pos := uint(bits.TrailingZeros64((x-0x1111_1111_1111_1111)&^x&0x8888_8888_8888_8888)) &^ 3
	below := word & (1<<pos - 1)
	c.lru[set] = below | word>>(pos+4)<<pos | uint64(w)<<(4*uint(c.ways-1))
}

// lookup returns addr's state, invalid when it is absent. It refreshes LRU
// state on a hit.
func (c *cache) lookup(addr uint64) lineState {
	set, at := c.find(addr)
	if at < 0 {
		return invalid
	}
	c.touch(set, at-set*c.ways)
	return lineState(c.keys[at] & 3)
}

// insert fills addr into its set, evicting the first free way in index
// order or else the least recently used one. It returns the victim's line
// address and state (victimState == invalid when the way was free).
func (c *cache) insert(addr uint64, st lineState) (victimAddr uint64, victimState lineState) {
	line := addr >> c.blockBits
	set := int(line & c.setMask)
	base := set * c.ways
	w := -1
	for i, k := range c.keys[base : base+c.ways] {
		if k&3 == uint64(invalid) {
			w = i
			break
		}
	}
	if w < 0 {
		w = int(c.lru[set] & 15)
		victim := c.keys[base+w]
		victimAddr, victimState = victim>>2<<c.blockBits, lineState(victim&3)
	}
	c.keys[base+w] = line<<2 | uint64(st)
	c.touch(set, w)
	return victimAddr, victimState
}

// invalidate drops addr if present, returning its previous state.
func (c *cache) invalidate(addr uint64) lineState {
	_, at := c.find(addr)
	if at < 0 {
		return invalid
	}
	st := lineState(c.keys[at] & 3)
	c.keys[at] = 0
	return st
}

// setState updates the state of a resident line and refreshes its LRU
// state; it is a no-op when the line is absent.
func (c *cache) setState(addr uint64, st lineState) {
	set, at := c.find(addr)
	if at >= 0 {
		c.keys[at] = c.keys[at]&^3 | uint64(st)
		c.touch(set, at-set*c.ways)
	}
}
