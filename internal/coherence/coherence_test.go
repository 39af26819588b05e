package coherence

import (
	"math/bits"
	"slices"
	"testing"

	"phastlane/internal/packet"
)

func TestCacheHitMiss(t *testing.T) {
	c := newCache(1024, 2, 64) // 8 sets x 2 ways
	if c.lookup(0) != invalid {
		t.Fatal("empty cache hit")
	}
	c.insert(0, shared)
	if c.lookup(0) == invalid {
		t.Fatal("miss after insert")
	}
	if c.lookup(64) != invalid {
		t.Fatal("different line hit")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newCache(1024, 2, 64) // 8 sets, 2 ways; lines mapping to set 0: 0, 512, 1024...
	c.insert(0, shared)
	c.insert(512, shared)
	c.lookup(0) // refresh line 0; 512 becomes LRU
	victim, st := c.insert(1024, modified)
	if st != shared || victim != 512 {
		t.Fatalf("evicted (%d,%v), want (512,shared)", victim, st)
	}
	if c.lookup(0) == invalid || c.lookup(1024) == invalid {
		t.Fatal("survivors missing")
	}
	if c.lookup(512) != invalid {
		t.Fatal("victim still resident")
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := newCache(1024, 2, 64)
	c.insert(128, modified)
	if st := c.invalidate(128); st != modified {
		t.Fatalf("invalidate returned %v", st)
	}
	if c.lookup(128) != invalid {
		t.Fatal("line survived invalidation")
	}
	if st := c.invalidate(128); st != invalid {
		t.Fatal("double invalidation returned non-invalid")
	}
}

func TestCacheSetState(t *testing.T) {
	c := newCache(1024, 2, 64)
	c.insert(0, modified)
	c.setState(0, shared)
	if c.lookup(0) != shared {
		t.Fatal("setState did not downgrade")
	}
	c.setState(999999, modified) // absent: no-op, no panic
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config: %v", err)
	}
	for _, tc := range []struct {
		name string
		edit func(*Config)
	}{
		{"L2 set count not a power of two", func(c *Config) { c.L2SizeBytes = 100 }},
		{"1-core system", func(c *Config) { c.Cores = 1 }},
		// 256 sets of 48 B blocks: the set count is a power of two, but
		// the cache indexes by address bits and would model 32 B blocks.
		{"L1 48 B blocks", func(c *Config) { c.L1BlockBytes, c.L1SizeBytes = 48, 48*4*256 }},
		{"L2 48 B blocks", func(c *Config) { c.L2BlockBytes, c.L2SizeBytes = 48, 48*16*256 }},
		// 32 ways at a power-of-two set count: more than a recency word
		// holds.
		{"L1 32 ways", func(c *Config) { c.L1Ways = 32 }},
		{"L2 32 ways", func(c *Config) { c.L2Ways = 32 }},
	} {
		bad := DefaultConfig()
		tc.edit(&bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestBenchmarksTable3(t *testing.T) {
	bs := Benchmarks()
	if len(bs) != 10 {
		t.Fatalf("got %d benchmarks, want 10 (Table 3)", len(bs))
	}
	want := []string{"Barnes", "Cholesky", "FFT", "LU", "Ocean", "Radix",
		"Raytrace", "Water-NSquared", "Water-Spatial", "FMM"}
	for i, p := range bs {
		if p.Name != want[i] {
			t.Errorf("benchmark %d = %s, want %s", i, p.Name, want[i])
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if p.DataSet == "" {
			t.Errorf("%s missing data set", p.Name)
		}
	}
}

func TestBenchmarkByName(t *testing.T) {
	if _, err := BenchmarkByName("Ocean"); err != nil {
		t.Error(err)
	}
	if _, err := BenchmarkByName("Nope"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

// small returns a fast-generating workload for tests.
func small() Params {
	p, _ := BenchmarkByName("Water-Spatial")
	p.Messages = 3000
	return p
}

func TestGenerateTraceValid(t *testing.T) {
	tr, err := GenerateTrace(small(), DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Nodes != 64 {
		t.Errorf("trace nodes = %d", tr.Nodes)
	}
	if len(tr.Messages) < 3000 {
		t.Errorf("trace has %d messages, want >= 3000", len(tr.Messages))
	}
}

func TestGenerateTraceMessageMix(t *testing.T) {
	tr, err := GenerateTrace(small(), DefaultConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[packet.Op]int{}
	broadcasts := 0
	for _, m := range tr.Messages {
		counts[m.Op]++
		if m.IsBroadcast() {
			broadcasts++
		}
	}
	// A snoopy system broadcasts every miss and upgrade.
	if counts[packet.OpReadReq] == 0 || counts[packet.OpWriteReq] == 0 {
		t.Errorf("missing request ops: %v", counts)
	}
	if counts[packet.OpDataReply] == 0 {
		t.Error("no data replies")
	}
	if broadcasts == 0 || broadcasts <= len(tr.Messages)/4 {
		t.Errorf("broadcast share %d/%d too small for a snoopy protocol", broadcasts, len(tr.Messages))
	}
}

func TestGenerateTraceReplyDependsOnRequest(t *testing.T) {
	tr, err := GenerateTrace(small(), DefaultConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range tr.Messages {
		if m.Op == packet.OpDataReply {
			if m.Dep == 0 {
				t.Fatal("reply without dependency")
			}
			req := tr.Messages[m.Dep-1]
			if !req.IsBroadcast() {
				t.Fatalf("reply %d depends on non-broadcast %d", m.ID, req.ID)
			}
			if req.Src != m.Dst {
				t.Fatalf("reply %d goes to %d, requester was %d", m.ID, m.Dst, req.Src)
			}
		}
	}
}

// TestGenerateTraceDeterministic pins that a seed fixes the trace under
// both protocols, and that another seed changes it.
func TestGenerateTraceDeterministic(t *testing.T) {
	for _, proto := range []Protocol{Snoopy, DirectoryMSI} {
		t.Run(proto.String(), func(t *testing.T) {
			p := small()
			p.Protocol = proto
			a, err := GenerateTrace(p, DefaultConfig(), 7)
			if err != nil {
				t.Fatal(err)
			}
			b, err := GenerateTrace(p, DefaultConfig(), 7)
			if err != nil {
				t.Fatal(err)
			}
			if len(a.Messages) != len(b.Messages) {
				t.Fatalf("lengths differ: %d vs %d", len(a.Messages), len(b.Messages))
			}
			for i := range a.Messages {
				if a.Messages[i] != b.Messages[i] {
					t.Fatalf("message %d differs: %+v vs %+v", i, a.Messages[i], b.Messages[i])
				}
			}
			c, err := GenerateTrace(p, DefaultConfig(), 8)
			if err != nil {
				t.Fatal(err)
			}
			if slices.Equal(a.Messages, c.Messages) {
				t.Error("different seeds produced identical traces")
			}
		})
	}
}

func TestGenerateTraceCoreCoverage(t *testing.T) {
	tr, err := GenerateTrace(small(), DefaultConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	srcs := map[int]bool{}
	for _, m := range tr.Messages {
		srcs[int(m.Src)] = true
	}
	if len(srcs) < 60 {
		t.Errorf("only %d cores generated traffic", len(srcs))
	}
}

func TestGenerateTraceBurstyWorkloadsHaveLowThink(t *testing.T) {
	cfg := DefaultConfig()
	ocean, _ := BenchmarkByName("Ocean")
	ocean.Messages = 4000
	water, _ := BenchmarkByName("Water-NSquared")
	water.Messages = 4000
	meanThink := func(p Params) float64 {
		tr, err := GenerateTrace(p, cfg, 5)
		if err != nil {
			t.Fatal(err)
		}
		var sum, n float64
		for _, m := range tr.Messages {
			if m.IsBroadcast() {
				sum += float64(m.Think)
				n++
			}
		}
		return sum / n
	}
	if o, w := meanThink(ocean), meanThink(water); o >= w {
		t.Errorf("Ocean mean think %.1f not below Water %.1f (burstiness broken)", o, w)
	}
}

func TestGenerateTraceRejectsBadParams(t *testing.T) {
	p := small()
	p.Messages = 0
	if _, err := GenerateTrace(p, DefaultConfig(), 1); err == nil {
		t.Error("zero-message workload accepted")
	}
	p = small()
	bad := DefaultConfig()
	bad.Cores = 1
	if _, err := GenerateTrace(p, bad, 1); err == nil {
		t.Error("bad config accepted")
	}
}

// The victim-address reconstruction in insert must be exact: re-inserting
// the reported victim must hit the same set.
func TestVictimAddressReconstruction(t *testing.T) {
	c := newCache(4096, 2, 64) // 32 sets
	base := uint64(0xAB00_0000)
	a1 := base | (5 << 6)             // set 5
	a2 := base | (5 << 6) | (32 << 6) // same set, different tag
	a3 := base | (5 << 6) | (64 << 6)
	c.insert(a1, modified)
	c.insert(a2, shared)
	victim, st := c.insert(a3, shared)
	if st != modified || victim != a1 {
		t.Fatalf("victim = %#x (%v), want %#x (modified)", victim, st, a1)
	}
}

func TestChainCountMatchesMLP(t *testing.T) {
	// Each core's MLP chains start with one dependency-free request;
	// every other request chains off an earlier completion.
	p := small()
	tr, err := GenerateTrace(p, DefaultConfig(), 9)
	if err != nil {
		t.Fatal(err)
	}
	rootRequests := 0
	for _, m := range tr.Messages {
		if m.IsBroadcast() && m.Dep == 0 {
			rootRequests++
		}
	}
	want := 64 * p.MLP
	if rootRequests != want {
		t.Errorf("dependency-free requests = %d, want cores x MLP = %d", rootRequests, want)
	}
}

func TestWritebacksTargetLineMC(t *testing.T) {
	// Writebacks go to a memory controller, which by construction is
	// never the evicting core itself (local writebacks are silent).
	radix, err := BenchmarkByName("Radix")
	if err != nil {
		t.Fatal(err)
	}
	radix.Messages = 6000
	tr, err := GenerateTrace(radix, DefaultConfig(), 10)
	if err != nil {
		t.Fatal(err)
	}
	writebacks := 0
	for _, m := range tr.Messages {
		if m.Op == packet.OpWriteback {
			writebacks++
			if m.IsBroadcast() {
				t.Fatal("writeback broadcast")
			}
			if m.Src == m.Dst {
				t.Fatal("writeback to self")
			}
		}
	}
	if writebacks == 0 {
		t.Error("write-heavy workload with warmed caches produced no writebacks")
	}
}

func TestWarmupCreatesCacheToCacheTransfers(t *testing.T) {
	// With a warmed shared region, some replies must come from Modified
	// owners (snoop latency) rather than memory controllers (80 cycles):
	// the think-time distribution of replies must be bimodal.
	p := small()
	tr, err := GenerateTrace(p, DefaultConfig(), 11)
	if err != nil {
		t.Fatal(err)
	}
	snoop, memory := 0, 0
	cfg := DefaultConfig()
	for _, m := range tr.Messages {
		if m.Op != packet.OpDataReply {
			continue
		}
		switch {
		case m.Think == int64(cfg.SnoopLatency):
			snoop++
		case m.Think == int64(cfg.MemLatency):
			memory++
		}
	}
	if snoop == 0 {
		t.Error("no cache-to-cache transfers: sharing model broken")
	}
	if memory == 0 {
		t.Error("no memory-controller replies: capacity model broken")
	}
}

// checkMSIInvariants verifies the single-writer/multiple-reader property
// over the generator's MSI tables and per-core caches, and that each row's
// sharer set is exactly the cores whose L2 holds the line: every resident
// line is a sharer and every sharer bit has a resident line. It walks each
// core's resident lines into a sharer table of its own, then compares the
// owner column and the sharer table whole.
func checkMSIInvariants(t *testing.T, g *generator) {
	t.Helper()
	resident := make([]uint64, len(g.sharers))
	modifiedHolders := make([]int, len(g.owner)) // per row
	for c, l2 := range g.l2 {
		for _, k := range l2.keys {
			st := lineState(k & 3)
			if st == invalid {
				continue
			}
			addr := k >> 2 << l2.blockBits
			r := g.row(addr)
			owner := int(g.owner[r])
			if st == modified {
				modifiedHolders[r]++
				if owner != c {
					t.Fatalf("line %#x: core %d holds M but owner is %d", addr, c, owner)
				}
			} else if owner == c {
				t.Fatalf("line %#x: owner %d holds line in state %v", addr, c, st)
			}
			resident[r*g.words+c/64] |= 1 << (c % 64)
		}
	}
	for r, owner := range g.owner {
		if n := modifiedHolders[r]; n > 1 {
			t.Fatalf("row %d: %d modified holders", r, n)
		}
		if owner >= 0 && modifiedHolders[r] == 0 {
			t.Fatalf("row %d: owner %d recorded but no M copy resident", r, owner)
		}
	}
	for i, w := range g.sharers {
		r, base := i/g.words, 64*(i%g.words)
		if extra := resident[i] &^ w; extra != 0 {
			t.Fatalf("row %d: core %d holds the line but is not a sharer", r, base+bits.TrailingZeros64(extra))
		}
		if stale := w &^ resident[i]; stale != 0 {
			t.Fatalf("row %d: sharer %d holds no L2 copy", r, base+bits.TrailingZeros64(stale))
		}
	}
}

// Property: the MSI invariants hold throughout the silent warm-up, whose
// L2 evictions clear sharer bits, and through generation, under both
// protocols.
func TestMSISingleWriterInvariant(t *testing.T) {
	cfg := DefaultConfig()
	warmRefs := 2 * cfg.L2SizeBytes / cfg.L2BlockBytes
	for _, name := range []string{"Barnes", "Cholesky", "FFT", "LU"} {
		for _, proto := range []Protocol{Snoopy, DirectoryMSI} {
			t.Run(name+"/"+proto.String(), func(t *testing.T) {
				p, err := BenchmarkByName(name)
				if err != nil {
					t.Fatal(err)
				}
				p.Protocol = proto
				g := newGenerator(p, cfg, 13)
				const rounds = 4
				for round := 0; round < rounds; round++ {
					for c := 0; c < cfg.Cores; c++ {
						for i := 0; i < warmRefs/rounds; i++ {
							g.warmReference(c)
						}
					}
					checkMSIInvariants(t, g)
				}
				for round := 0; round < rounds; round++ {
					for c := 0; c < cfg.Cores; c++ {
						for r := 0; r < 40; r++ {
							g.reference(c)
						}
					}
					checkMSIInvariants(t, g)
				}
				if len(g.msgs) == 0 {
					t.Fatal("generation emitted no messages")
				}
			})
		}
	}
}

func TestDirectoryProtocolNoBroadcasts(t *testing.T) {
	p := small()
	p.Protocol = DirectoryMSI
	tr, err := GenerateTrace(p, DefaultConfig(), 21)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[packet.Op]int{}
	for _, m := range tr.Messages {
		if m.IsBroadcast() {
			t.Fatal("directory protocol emitted a broadcast")
		}
		counts[m.Op]++
	}
	if counts[packet.OpReadReq] == 0 || counts[packet.OpDataReply] == 0 {
		t.Errorf("missing request/reply traffic: %v", counts)
	}
	if counts[packet.OpWriteReq] == 0 {
		t.Errorf("missing write requests/invalidations: %v", counts)
	}
}

func TestProtocolString(t *testing.T) {
	if Snoopy.String() != "snoopy" || DirectoryMSI.String() != "directory" {
		t.Error("protocol names wrong")
	}
	if Protocol(9).String() == "" {
		t.Error("unknown protocol name empty")
	}
}

func TestGenerateTrace256Cores(t *testing.T) {
	p := small()
	p.Messages = 2500
	cfg := DefaultConfig()
	cfg.Cores = 256
	tr, err := GenerateTrace(p, cfg, 22)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Nodes != 256 {
		t.Fatalf("nodes = %d", tr.Nodes)
	}
	srcs := map[int]bool{}
	for _, m := range tr.Messages {
		srcs[int(m.Src)] = true
	}
	if len(srcs) < 200 {
		t.Errorf("only %d of 256 cores generated traffic", len(srcs))
	}
}
