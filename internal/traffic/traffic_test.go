package traffic

import (
	"math"
	"testing"

	"phastlane/internal/mesh"
)

func TestBitComplement(t *testing.T) {
	p := BitComplement(64)
	cases := map[mesh.NodeID]mesh.NodeID{0: 63, 63: 0, 1: 62, 21: 42}
	for src, want := range cases {
		if got := p.Dest(src); got != want {
			t.Errorf("BitComp(%d) = %d, want %d", src, got, want)
		}
	}
}

func TestBitReverse(t *testing.T) {
	p := BitReverse(64)
	// 6-bit reverse: 000001 -> 100000.
	cases := map[mesh.NodeID]mesh.NodeID{1: 32, 32: 1, 0: 0, 63: 63, 0b000110: 0b011000}
	for src, want := range cases {
		if got := p.Dest(src); got != want {
			t.Errorf("BitRev(%d) = %d, want %d", src, got, want)
		}
	}
}

func TestShuffle(t *testing.T) {
	p := Shuffle(64)
	// Rotate left: 100000 -> 000001.
	cases := map[mesh.NodeID]mesh.NodeID{32: 1, 1: 2, 63: 63, 0b101010: 0b010101}
	for src, want := range cases {
		if got := p.Dest(src); got != want {
			t.Errorf("Shuffle(%d) = %d, want %d", src, got, want)
		}
	}
}

func TestTranspose(t *testing.T) {
	p := Transpose(64)
	m := mesh.New(8, 8)
	for src := mesh.NodeID(0); src < 64; src++ {
		c := m.Coord(src)
		want := m.ID(mesh.Coord{X: c.Y, Y: c.X})
		if got := p.Dest(src); got != want {
			t.Errorf("Transpose(%d)=(%v) = %d, want %d", src, c, got, want)
		}
	}
}

// Every bit-permutation pattern is a bijection.
func TestPatternsAreBijections(t *testing.T) {
	for _, p := range Patterns(64) {
		seen := make(map[mesh.NodeID]bool)
		for src := mesh.NodeID(0); src < 64; src++ {
			d := p.Dest(src)
			if d < 0 || d >= 64 {
				t.Fatalf("%s(%d) = %d out of range", p.Name(), src, d)
			}
			if seen[d] {
				t.Fatalf("%s maps two sources to %d", p.Name(), d)
			}
			seen[d] = true
		}
	}
}

func TestUniformRandomAvoidsSelf(t *testing.T) {
	p := UniformRandom(64, 1)
	for i := 0; i < 1000; i++ {
		src := mesh.NodeID(i % 64)
		if p.Dest(src) == src {
			t.Fatal("uniform pattern returned self")
		}
	}
}

func TestInjectorRate(t *testing.T) {
	in := NewInjector(UniformRandom(64, 2), 64, 0.25, 3)
	total := 0
	cycles := 2000
	for i := 0; i < cycles; i++ {
		total += len(in.Tick())
	}
	got := float64(total) / float64(cycles) / 64
	if got < 0.22 || got > 0.28 {
		t.Errorf("measured injection rate %.3f, want ~0.25", got)
	}
}

func TestInjectorZeroRate(t *testing.T) {
	in := NewInjector(BitComplement(64), 64, 0, 1)
	for i := 0; i < 100; i++ {
		if len(in.Tick()) != 0 {
			t.Fatal("zero-rate injector produced packets")
		}
	}
}

func TestInjectorSkipsSelfSlots(t *testing.T) {
	// Transpose fixes the diagonal; those slots must be skipped.
	in := NewInjector(Transpose(64), 64, 1.0, 1)
	m := mesh.New(8, 8)
	for _, inj := range in.Tick() {
		c := m.Coord(inj.Src)
		if c.X == c.Y {
			t.Fatalf("diagonal node %d injected under transpose", inj.Src)
		}
		if inj.Src == inj.Dst {
			t.Fatal("self-directed injection")
		}
	}
}

func TestInjectorPanicsOnBadRate(t *testing.T) {
	for _, rate := range []float64{2, math.NaN(), -0.1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewInjector(rate=%v) did not panic", rate)
				}
			}()
			NewInjector(BitComplement(64), 64, rate, 1)
		}()
	}
}

func TestLog2PanicsOnNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("BitComplement(48) did not panic")
		}
	}()
	BitComplement(48)
}

func TestPatternNames(t *testing.T) {
	want := []string{"BitComp", "BitRev", "Shuffle", "Transpose"}
	ps := Patterns(64)
	if len(ps) != len(want) {
		t.Fatalf("Patterns returned %d patterns", len(ps))
	}
	for i, p := range ps {
		if p.Name() != want[i] {
			t.Errorf("pattern %d = %s, want %s", i, p.Name(), want[i])
		}
	}
}
