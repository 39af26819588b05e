package coherence

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refWay is one way of refCache.
type refWay struct {
	tag   uint64
	state lineState
	used  uint64 // LRU timestamp
}

// refCache is the set-associative LRU cache the flat tables replaced, kept
// as the reference TestCacheMatchesReference checks cache against: a
// [][]refWay of sets, a stamp per way from one tick, and a victim scan that
// takes the first free way in index order or else the smallest stamp.
type refCache struct {
	sets      [][]refWay
	blockBits uint
	setBits   uint
	setMask   uint64
	tick      uint64
}

func newRefCache(sizeBytes, ways, blockBytes int) *refCache {
	sets := sizeBytes / (ways * blockBytes)
	c := &refCache{
		sets:    make([][]refWay, sets),
		setMask: uint64(sets - 1),
	}
	for b := blockBytes; b > 1; b >>= 1 {
		c.blockBits++
	}
	for m := c.setMask; m > 0; m >>= 1 {
		c.setBits++
	}
	for i := range c.sets {
		c.sets[i] = make([]refWay, ways)
	}
	return c
}

func (c *refCache) index(addr uint64) ([]refWay, uint64) {
	line := addr >> c.blockBits
	return c.sets[line&c.setMask], line >> c.setBits
}

func (c *refCache) lookup(addr uint64) *refWay {
	set, tag := c.index(addr)
	for i := range set {
		if set[i].state != invalid && set[i].tag == tag {
			c.tick++
			set[i].used = c.tick
			return &set[i]
		}
	}
	return nil
}

func (c *refCache) insert(addr uint64, st lineState) (victimAddr uint64, victimState lineState) {
	set, tag := c.index(addr)
	lru := 0
	for i := range set {
		if set[i].state == invalid {
			lru = i
			break
		}
		if set[i].used < set[lru].used {
			lru = i
		}
	}
	victimState = set[lru].state
	if victimState != invalid {
		victimAddr = ((set[lru].tag << c.setBits) | (addr >> c.blockBits & c.setMask)) << c.blockBits
	}
	c.tick++
	set[lru] = refWay{tag: tag, state: st, used: c.tick}
	return victimAddr, victimState
}

func (c *refCache) invalidate(addr uint64) lineState {
	set, tag := c.index(addr)
	for i := range set {
		if set[i].state != invalid && set[i].tag == tag {
			st := set[i].state
			set[i].state = invalid
			return st
		}
	}
	return invalid
}

func (c *refCache) setState(addr uint64, st lineState) {
	if w := c.lookup(addr); w != nil {
		w.state = st
	}
}

// peek returns addr's state without refreshing LRU state.
func (c *refCache) peek(addr uint64) lineState {
	set, tag := c.index(addr)
	for _, w := range set {
		if w.state != invalid && w.tag == tag {
			return w.state
		}
	}
	return invalid
}

// peek returns addr's state in c without refreshing LRU state.
func peek(c *cache, addr uint64) lineState {
	if _, at := c.find(addr); at >= 0 {
		return lineState(c.keys[at] & 3)
	}
	return invalid
}

// sameContents fails unless every way of c holds what the same way of ref
// holds, and each set's recency word lists its valid ways in ref's stamp
// order.
func sameContents(t *testing.T, c *cache, ref *refCache) {
	t.Helper()
	for s, ways := range ref.sets {
		var byStamp []int
		for w, rw := range ways {
			k := c.keys[s*c.ways+w]
			if st := lineState(k & 3); st != rw.state {
				t.Fatalf("set %d way %d: state %v, reference %v", s, w, st, rw.state)
			}
			if rw.state == invalid {
				continue
			}
			if line := rw.tag<<ref.setBits | uint64(s); k>>2 != line {
				t.Fatalf("set %d way %d: line %#x, reference %#x", s, w, k>>2, line)
			}
			byStamp = append(byStamp, w)
		}
		sort.Slice(byStamp, func(i, j int) bool { return ways[byStamp[i]].used < ways[byStamp[j]].used })
		var byWord []int
		for f := 0; f < c.ways; f++ {
			if w := int(c.lru[s] >> (4 * f) & 15); ways[w].state != invalid {
				byWord = append(byWord, w)
			}
		}
		if !slices.Equal(byWord, byStamp) {
			t.Fatalf("set %d: recency order %v, reference %v", s, byWord, byStamp)
		}
	}
}

// TestCacheMatchesReference runs seeded random lookups, inserts of absent
// lines, invalidations and state changes on cache and refCache side by
// side, over a pool of addresses three times the cache's capacity, and
// requires the same state, victim address and victim state from both after
// every operation, and the same contents and recency order throughout.
func TestCacheMatchesReference(t *testing.T) {
	for _, ways := range []int{1, 2, 4, 8, 16} {
		for _, sets := range []int{1, 8, 256} {
			for _, block := range []int{32, 64} {
				t.Run(fmt.Sprintf("%dsets/%dways/%dB", sets, ways, block), func(t *testing.T) {
					size := sets * ways * block
					c, ref := newCache(size, ways, block), newRefCache(size, ways, block)
					rng := rand.New(rand.NewSource(int64(1000*sets + 10*ways + block)))
					pool := make([]uint64, 3*sets*ways)
					for i := range pool {
						pool[i] = rng.Uint64()
					}
					states := []lineState{shared, modified}
					for op := 0; op < 20000; op++ {
						addr := pool[rng.Intn(len(pool))]
						switch rng.Intn(4) {
						case 0:
							want := invalid
							if w := ref.lookup(addr); w != nil {
								want = w.state
							}
							if got := c.lookup(addr); got != want {
								t.Fatalf("op %d: lookup(%#x) = %v, reference %v", op, addr, got, want)
							}
						case 1:
							if _, at := c.find(addr); at >= 0 {
								continue
							}
							st := states[rng.Intn(2)]
							gotAddr, gotSt := c.insert(addr, st)
							wantAddr, wantSt := ref.insert(addr, st)
							if gotAddr != wantAddr || gotSt != wantSt {
								t.Fatalf("op %d: insert(%#x) evicted (%#x, %v), reference (%#x, %v)",
									op, addr, gotAddr, gotSt, wantAddr, wantSt)
							}
						case 2:
							if got, want := c.invalidate(addr), ref.invalidate(addr); got != want {
								t.Fatalf("op %d: invalidate(%#x) = %v, reference %v", op, addr, got, want)
							}
						case 3:
							st := states[rng.Intn(2)]
							c.setState(addr, st)
							ref.setState(addr, st)
						}
						if got, want := peek(c, addr), ref.peek(addr); got != want {
							t.Fatalf("op %d: %#x is %v, reference %v", op, addr, got, want)
						}
						if op%97 == 0 {
							sameContents(t, c, ref)
						}
					}
					sameContents(t, c, ref)
				})
			}
		}
	}
}
