package coherence

import (
	"fmt"
	"math/bits"
	"math/rand"

	"phastlane/internal/mesh"
	"phastlane/internal/packet"
	"phastlane/internal/trace"
)

// chainState is one outstanding-miss chain (MSHR) of a core: the trace
// message whose completion gates this chain's next miss.
type chainState struct {
	lastDep uint64
}

// sharerSet is one line's sharers: core c is bit c%64 of word c/64.
type sharerSet []uint64

func (s sharerSet) add(c int)    { s[c/64] |= 1 << (c % 64) }
func (s sharerSet) remove(c int) { s[c/64] &^= 1 << (c % 64) }

// generator runs the coherence protocol over synthetic reference streams
// and records the resulting network messages.
type generator struct {
	cfg Config
	p   Params
	rng *rand.Rand

	l1, l2 []*cache
	// The system-wide MSI state of every L2 line, in dense tables
	// indexed by the line's row (see row): owner[r] is the core holding
	// row r Modified, or -1, and sharers[r*words:(r+1)*words] is its
	// sharer set. Bitsets walk in ascending core order, so the directory
	// protocol's invalidations are deterministic.
	owner   []int32
	sharers []uint64
	words   int

	msgs   []trace.Message
	chains [][]chainState
	misses []int // per core, for chain round-robin and burst phase

	privPos, sharedPos []uint64
}

// newGenerator builds a generator with cold caches and empty MSI tables;
// p and cfg must be valid.
func newGenerator(p Params, cfg Config, seed int64) *generator {
	rows := cfg.Cores*p.PrivateLines + p.SharedLines
	g := &generator{
		cfg:       cfg,
		p:         p,
		rng:       rand.New(rand.NewSource(seed)),
		l1:        make([]*cache, cfg.Cores),
		l2:        make([]*cache, cfg.Cores),
		owner:     make([]int32, rows),
		words:     (cfg.Cores + 63) / 64,
		chains:    make([][]chainState, cfg.Cores),
		misses:    make([]int, cfg.Cores),
		privPos:   make([]uint64, cfg.Cores),
		sharedPos: make([]uint64, cfg.Cores),
	}
	g.sharers = make([]uint64, rows*g.words)
	for r := range g.owner {
		g.owner[r] = -1
	}
	for c := 0; c < cfg.Cores; c++ {
		g.l1[c] = newCache(cfg.L1SizeBytes, cfg.L1Ways, cfg.L1BlockBytes)
		g.l2[c] = newCache(cfg.L2SizeBytes, cfg.L2Ways, cfg.L2BlockBytes)
		g.chains[c] = make([]chainState, p.MLP)
		g.privPos[c] = uint64(g.rng.Intn(p.PrivateLines))
		g.sharedPos[c] = uint64(g.rng.Intn(p.SharedLines))
	}
	return g
}

// GenerateTrace runs workload p over the cache hierarchy cfg and returns
// the network trace both simulators replay.
func GenerateTrace(p Params, cfg Config, seed int64) (*trace.Trace, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := newGenerator(p, cfg, seed)
	// Warm the hierarchy silently so the emitted trace reflects steady
	// state - capacity misses, cache-to-cache transfers from Modified
	// owners, and dirty writebacks - rather than a pure cold-start.
	warmRefs := 2 * cfg.L2SizeBytes / cfg.L2BlockBytes
	for c := 0; c < cfg.Cores; c++ {
		for i := 0; i < warmRefs; i++ {
			g.warmReference(c)
		}
	}
	// Round-robin the cores; each turn runs references until one
	// produces network traffic, keeping per-core message interleaving
	// even.
	const maxRefsPerTurn = 400
	stuckTurns := 0
	for len(g.msgs) < p.Messages && stuckTurns < cfg.Cores*4 {
		progressed := false
		for c := 0; c < cfg.Cores && len(g.msgs) < p.Messages; c++ {
			for ref := 0; ref < maxRefsPerTurn; ref++ {
				if g.reference(c) {
					progressed = true
					break
				}
			}
		}
		if progressed {
			stuckTurns = 0
		} else {
			stuckTurns++
		}
	}
	if len(g.msgs) == 0 {
		return nil, fmt.Errorf("coherence: workload %q produced no traffic", p.Name)
	}
	tr := &trace.Trace{Nodes: cfg.Cores, Messages: g.msgs}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("coherence: generated invalid trace: %w", err)
	}
	return tr, nil
}

// sharedBase is the shared region's base address. Private regions are
// disjoint per core below it; all addresses are L2-line aligned.
const sharedBase = 1 << 48

func (g *generator) privateAddr(core int, line uint64) uint64 {
	return (uint64(core+1) << 32) | line*uint64(g.cfg.L2BlockBytes)
}

func (g *generator) sharedAddr(line uint64) uint64 {
	return sharedBase | line*uint64(g.cfg.L2BlockBytes)
}

// row returns addr's index into the MSI tables: every core's private
// region in core order, then the shared region.
func (g *generator) row(addr uint64) int {
	line := int(uint32(addr)) / g.cfg.L2BlockBytes
	region := g.cfg.Cores
	if addr < sharedBase {
		region = int(addr>>32) - 1
	}
	return region*g.p.PrivateLines + line
}

// sharersOf returns row r's sharer set, a window of the generator's table.
func (g *generator) sharersOf(r int) sharerSet {
	return g.sharers[r*g.words : (r+1)*g.words]
}

// nextRef synthesises the next reference for a core.
func (g *generator) nextRef(core int) (addr uint64, write bool) {
	write = g.rng.Float64() < g.p.WriteFrac
	if g.rng.Float64() < g.p.SharedFrac {
		if g.rng.Float64() < g.p.Locality {
			g.sharedPos[core] = (g.sharedPos[core] + 1) % uint64(g.p.SharedLines)
		} else {
			g.sharedPos[core] = uint64(g.rng.Intn(g.p.SharedLines))
		}
		return g.sharedAddr(g.sharedPos[core]), write
	}
	if g.rng.Float64() < g.p.Locality {
		g.privPos[core] = (g.privPos[core] + 1) % uint64(g.p.PrivateLines)
	} else {
		g.privPos[core] = uint64(g.rng.Intn(g.p.PrivateLines))
	}
	return g.privateAddr(core, g.privPos[core]), write
}

// reference runs one memory reference through the hierarchy; it returns
// true when network traffic was generated.
func (g *generator) reference(core int) bool {
	addr, write := g.nextRef(core)
	// L1 filters read hits; writes always consult the L2 so upgrade
	// traffic is preserved.
	if !write {
		if g.l1[core].lookup(addr) != invalid {
			return false
		}
		g.l1[core].insert(addr, shared)
	}
	st := g.l2[core].lookup(addr)
	switch {
	case st == invalid:
		g.miss(core, addr, write)
		return true
	case write && st == shared:
		g.upgrade(core, addr)
		return true
	default:
		return false // L2 hit in a sufficient state
	}
}

// warmReference runs one reference through the hierarchy updating cache and
// MSI state without emitting trace messages, for cache warmup.
func (g *generator) warmReference(core int) {
	addr, write := g.nextRef(core)
	if !write {
		if g.l1[core].lookup(addr) != invalid {
			return
		}
		g.l1[core].insert(addr, shared)
	}
	st := g.l2[core].lookup(addr)
	switch {
	case st == invalid:
		g.fill(core, addr, write, 0, false)
	case write && st == shared:
		g.takeOwnership(core, addr)
		g.l2[core].setState(addr, modified)
	}
}

// takeOwnership makes core the line's owner and only sharer: every other
// copy is invalidated. The caller sets core's own copy Modified.
func (g *generator) takeOwnership(core int, addr uint64) {
	r := g.row(addr)
	sharers := g.sharersOf(r)
	for i, w := range sharers {
		for ; w != 0; w &= w - 1 {
			if s := 64*i + bits.TrailingZeros64(w); s != core {
				g.l2[s].invalidate(addr)
				g.l1[s].invalidate(addr)
			}
		}
	}
	if o := int(g.owner[r]); o >= 0 && o != core {
		g.l2[o].invalidate(addr)
		g.l1[o].invalidate(addr)
	}
	g.owner[r] = int32(core)
	clear(sharers)
	sharers.add(core)
}

// fill completes core's miss on addr: a write takes ownership, a read
// joins the sharers and demotes a Modified owner to one. The line enters
// core's L2; a dirty victim's writeback, when emitting, depends on dep.
func (g *generator) fill(core int, addr uint64, write bool, dep uint64, emitting bool) {
	st := shared
	if write {
		st = modified
		g.takeOwnership(core, addr)
	} else {
		r := g.row(addr)
		if o := int(g.owner[r]); o >= 0 && o != core {
			g.l2[o].setState(addr, shared)
			g.sharersOf(r).add(o)
		}
		g.owner[r] = -1
		g.sharersOf(r).add(core)
	}
	victimAddr, victimState := g.l2[core].insert(addr, st)
	if victimState == invalid {
		return
	}
	r := g.row(victimAddr)
	g.sharersOf(r).remove(core)
	if victimState != modified {
		return
	}
	if int(g.owner[r]) == core {
		g.owner[r] = -1
	}
	if mc := g.mcOf(victimAddr); emitting && mc != core {
		g.emit(trace.Message{
			Src: mesh.NodeID(core), Dst: mesh.NodeID(mc),
			Op: packet.OpWriteback, Dep: dep, Think: 1,
		})
	}
}

// pacing returns the think time before this core's next miss may inject,
// following the benchmark's burst structure.
func (g *generator) pacing(core int) int64 {
	n := g.misses[core]
	g.misses[core]++
	if g.p.BurstLen > 0 {
		phase := n % (g.p.BurstLen + g.p.BurstGap)
		if phase < g.p.BurstLen {
			return int64(g.p.BurstThink)
		}
	}
	return int64(g.p.ThinkMean + g.rng.Intn(g.p.ThinkMean/2+1))
}

// emit appends a message and returns its ID.
func (g *generator) emit(m trace.Message) uint64 {
	m.ID = uint64(len(g.msgs) + 1)
	g.msgs = append(g.msgs, m)
	return m.ID
}

// mcOf returns the memory controller owning a line: the 64 MCs are
// interleaved on a cache-line basis (paper Section 2).
func (g *generator) mcOf(addr uint64) int {
	return int((addr / uint64(g.cfg.L2BlockBytes)) % uint64(g.cfg.Cores))
}

// dirLatency is the directory lookup time at a home memory controller.
const dirLatency = 6

// miss handles an L2 miss: request the line (by broadcast under the snoopy
// protocol, or unicast to the home directory), have the owner or the
// line's memory controller reply, update MSI state, and write back any
// dirty victim.
func (g *generator) miss(core int, addr uint64, write bool) {
	if g.p.Protocol == DirectoryMSI {
		g.missDirectory(core, addr, write)
		return
	}
	chain := &g.chains[core][g.misses[core]%g.p.MLP]
	op := packet.OpReadReq
	if write {
		op = packet.OpWriteReq
	}
	req := g.emit(trace.Message{
		Src: mesh.NodeID(core), Dst: trace.Broadcast, Op: op,
		Dep: chain.lastDep, Think: g.pacing(core),
		EarliestCycle: g.stagger(chain.lastDep),
	})
	completion := req

	// Data supplier: the Modified owner if any, else the line's MC.
	supplier, latency := g.mcOf(addr), int64(g.cfg.MemLatency)
	if o := int(g.owner[g.row(addr)]); o >= 0 && o != core {
		supplier, latency = o, int64(g.cfg.SnoopLatency)
	}
	if supplier != core {
		completion = g.emit(trace.Message{
			Src: mesh.NodeID(supplier), Dst: mesh.NodeID(core),
			Op: packet.OpDataReply, Dep: req, Think: latency,
		})
	}
	g.fill(core, addr, write, completion, true)
	chain.lastDep = completion
}

// missDirectory is the DirectoryMSI miss flow: unicast request to the home
// MC; the directory forwards to the Modified owner or replies itself, and
// sends targeted invalidations on writes. No broadcasts.
func (g *generator) missDirectory(core int, addr uint64, write bool) {
	chain := &g.chains[core][g.misses[core]%g.p.MLP]
	home := g.mcOf(addr)
	r := g.row(addr)
	think := g.pacing(core)
	op := packet.OpReadReq
	if write {
		op = packet.OpWriteReq
	}

	// Request to the home directory (silent when home is local).
	reqDep := chain.lastDep
	req := reqDep
	if home != core {
		req = g.emit(trace.Message{
			Src: mesh.NodeID(core), Dst: mesh.NodeID(home), Op: op,
			Dep: reqDep, Think: think,
			EarliestCycle: g.stagger(reqDep),
		})
	}
	if write {
		g.invalidations(core, home, r, req)
	}

	// Data supply: forward to the owner for a cache-to-cache transfer,
	// or reply from memory at the home node.
	completion := req
	if o := int(g.owner[r]); o >= 0 && o != core {
		fwd := req
		if o != home {
			fwd = g.emit(trace.Message{
				Src: mesh.NodeID(home), Dst: mesh.NodeID(o),
				Op: op, Dep: req, Think: dirLatency,
			})
		}
		completion = g.emit(trace.Message{
			Src: mesh.NodeID(o), Dst: mesh.NodeID(core),
			Op: packet.OpDataReply, Dep: fwd, Think: int64(g.cfg.SnoopLatency),
		})
	} else if home != core {
		completion = g.emit(trace.Message{
			Src: mesh.NodeID(home), Dst: mesh.NodeID(core),
			Op: packet.OpDataReply, Dep: req, Think: int64(dirLatency + g.cfg.MemLatency),
		})
	}
	g.fill(core, addr, write, completion, true)
	chain.lastDep = completion
}

// invalidations emits the home directory's targeted invalidations of row
// r for a write by core, one per other sharer in ascending core order,
// each after req.
func (g *generator) invalidations(core, home, r int, req uint64) {
	for i, w := range g.sharersOf(r) {
		for ; w != 0; w &= w - 1 {
			if s := 64*i + bits.TrailingZeros64(w); s != core && s != home {
				g.emit(trace.Message{
					Src: mesh.NodeID(home), Dst: mesh.NodeID(s),
					Op: packet.OpWriteReq, Dep: req, Think: dirLatency,
				})
			}
		}
	}
}

// upgrade handles a write hit on a Shared line: broadcast the invalidation
// (snoopy) or send targeted invalidations via the home directory, and take
// ownership.
func (g *generator) upgrade(core int, addr uint64) {
	if g.p.Protocol == DirectoryMSI {
		g.upgradeDirectory(core, addr)
		return
	}
	chain := &g.chains[core][g.misses[core]%g.p.MLP]
	req := g.emit(trace.Message{
		Src: mesh.NodeID(core), Dst: trace.Broadcast, Op: packet.OpWriteReq,
		Dep: chain.lastDep, Think: g.pacing(core),
		EarliestCycle: g.stagger(chain.lastDep),
	})
	g.takeOwnership(core, addr)
	g.l2[core].setState(addr, modified)
	chain.lastDep = req
}

// upgradeDirectory is the DirectoryMSI upgrade flow: request ownership at
// the home MC, which invalidates the other sharers and acknowledges.
func (g *generator) upgradeDirectory(core int, addr uint64) {
	chain := &g.chains[core][g.misses[core]%g.p.MLP]
	home := g.mcOf(addr)
	think := g.pacing(core)

	req := chain.lastDep
	if home != core {
		req = g.emit(trace.Message{
			Src: mesh.NodeID(core), Dst: mesh.NodeID(home),
			Op: packet.OpWriteReq, Dep: chain.lastDep, Think: think,
			EarliestCycle: g.stagger(chain.lastDep),
		})
	}
	g.invalidations(core, home, g.row(addr), req)
	completion := req
	if home != core {
		completion = g.emit(trace.Message{
			Src: mesh.NodeID(home), Dst: mesh.NodeID(core),
			Op: packet.OpAck, Dep: req, Think: dirLatency,
		})
	}
	g.takeOwnership(core, addr)
	g.l2[core].setState(addr, modified)
	chain.lastDep = completion
}

// stagger spreads dependency-free first misses over the first cycles so
// cold-start injection is not perfectly synchronised.
func (g *generator) stagger(dep uint64) int64 {
	if dep != 0 {
		return 0
	}
	return int64(g.rng.Intn(24))
}
