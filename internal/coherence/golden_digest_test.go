package coherence

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

// goldenTraceDigests pins every Benchmarks() workload's trace at
// goldenMessages messages and seed 1, under both protocols, as an FNV-64a
// digest over every field of every message (see traceDigest).
var goldenTraceDigests = map[string]map[Protocol]uint64{
	"Barnes":         {Snoopy: 0x5b10536db014e7a3, DirectoryMSI: 0xe3511db418542b72},
	"Cholesky":       {Snoopy: 0x0690b6d7b78c09e4, DirectoryMSI: 0x31975afe7f7af900},
	"FFT":            {Snoopy: 0x2cdcbdf58f938b66, DirectoryMSI: 0xb0047a36517b2576},
	"LU":             {Snoopy: 0x0b5a0d8f1cdc0e7b, DirectoryMSI: 0x709e4d10fa3efb3d},
	"Ocean":          {Snoopy: 0xe27d45d96e996d23, DirectoryMSI: 0x74934eac8b9d9822},
	"Radix":          {Snoopy: 0x8218a78bfbec59ca, DirectoryMSI: 0xe5e8db747a5fb19c},
	"Raytrace":       {Snoopy: 0x2fab05620549608d, DirectoryMSI: 0x96e4721b419eacee},
	"Water-NSquared": {Snoopy: 0x6661e2f961fdd7c1, DirectoryMSI: 0xf4a00dbc1cd6f947},
	"Water-Spatial":  {Snoopy: 0x056894554860f53e, DirectoryMSI: 0xb97f15e43c2b14a0},
	"FMM":            {Snoopy: 0xcd8129bd6e8c18d6, DirectoryMSI: 0xedd585cc8f80a8ee},
}

// goldenMessages is the trace length each golden digest covers.
const goldenMessages = 3000

// traceDigest generates p's trace under proto at seed 1 and returns an
// FNV-64a digest of its length and of every message field in order.
func traceDigest(t *testing.T, p Params, proto Protocol) uint64 {
	t.Helper()
	p.Messages = goldenMessages
	p.Protocol = proto
	tr, err := GenerateTrace(p, DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var word [8]byte
	put := func(vs ...uint64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(word[:], v)
			h.Write(word[:])
		}
	}
	put(uint64(tr.Nodes), uint64(len(tr.Messages)))
	for _, m := range tr.Messages {
		put(m.ID, uint64(m.EarliestCycle), uint64(m.Src), uint64(m.Dst), uint64(m.Op), m.Dep, uint64(m.Think))
	}
	return h.Sum64()
}

// TestGenerateTraceGoldenDigests pins the generator's output across
// versions: each digest was recorded once and must not move. The other
// generator tests check properties a changed trace can still have, so a
// change in victim choice, MSI bookkeeping or reference order under either
// protocol shows up only here.
func TestGenerateTraceGoldenDigests(t *testing.T) {
	for _, p := range Benchmarks() {
		for _, proto := range []Protocol{Snoopy, DirectoryMSI} {
			t.Run(p.Name+"/"+proto.String(), func(t *testing.T) {
				want, ok := goldenTraceDigests[p.Name][proto]
				if !ok {
					t.Fatalf("no golden digest for %s/%s", p.Name, proto)
				}
				if got := traceDigest(t, p, proto); got != want {
					t.Errorf("digest %#016x, want %#016x", got, want)
				}
			})
		}
	}
}
