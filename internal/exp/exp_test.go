package exp

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestDeriveSeedDeterministic(t *testing.T) {
	for i := uint64(0); i < 100; i++ {
		if DeriveSeed(42, i) != DeriveSeed(42, i) {
			t.Fatalf("DeriveSeed(42, %d) not stable", i)
		}
	}
}

// TestMix64Vectors pins Mix64 to splitmix64's published first outputs
// for state 0, and DeriveSeed to values recorded before it was written
// over Mix64: every per-point seed, fault plan and job digest rests on
// these.
func TestMix64Vectors(t *testing.T) {
	if got := Mix64(0); got != 0xe220a8397b1dcdaf {
		t.Errorf("Mix64(0) = %#x, want 0xe220a8397b1dcdaf", got)
	}
	if got := Mix64(0x9e3779b97f4a7c15); got != 0x6e789e6aa1b965f4 {
		t.Errorf("Mix64(golden) = %#x, want 0x6e789e6aa1b965f4", got)
	}
	for _, c := range []struct {
		base  int64
		index uint64
		want  int64
	}{
		{0, 0, -2152535657050944081},
		{1, 0, -7995527694508729151},
		{1, 1, -4689498862643123097},
		{42, 7, -3677692746721775708},
		{-5, 1 << 40, -5992946691572228079},
	} {
		if got := DeriveSeed(c.base, c.index); got != c.want {
			t.Errorf("DeriveSeed(%d, %d) = %d, want %d", c.base, c.index, got, c.want)
		}
	}
}

func TestDeriveSeedDecorrelates(t *testing.T) {
	seen := map[int64]uint64{}
	for i := uint64(0); i < 10000; i++ {
		s := DeriveSeed(1, i)
		if s == 0 {
			t.Fatalf("DeriveSeed(1, %d) = 0", i)
		}
		if j, dup := seen[s]; dup {
			t.Fatalf("DeriveSeed(1, %d) collides with index %d", i, j)
		}
		seen[s] = i
	}
	// Adjacent base seeds must not produce overlapping streams.
	if DeriveSeed(1, 1) == DeriveSeed(2, 0) {
		t.Error("trivially shifted streams collide")
	}
}

func TestRunOrdersResults(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{0, 1, 2, 8, 200} {
		got := Run(items, func(i, it int) int {
			if i != it {
				t.Errorf("fn called with index %d for item %d", i, it)
			}
			return it * it
		}, Options{Workers: workers})
		for i, r := range got {
			if r != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, r, i*i)
			}
		}
	}
}

func TestRunEmpty(t *testing.T) {
	if got := Run(nil, func(int, int) int { return 1 }, Options{}); len(got) != 0 {
		t.Errorf("Run(nil) returned %d results", len(got))
	}
}

func TestRunWorkerCountsAgree(t *testing.T) {
	items := make([]uint64, 64)
	for i := range items {
		items[i] = uint64(i)
	}
	fn := func(i int, it uint64) int64 { return DeriveSeed(7, it) }
	serial := Run(items, fn, Options{Workers: 1})
	parallel := Run(items, fn, Options{Workers: 8})
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("result[%d]: workers=1 %d vs workers=8 %d", i, serial[i], parallel[i])
		}
	}
}

func TestRunProgressMonotonic(t *testing.T) {
	items := make([]int, 50)
	var calls []int
	Run(items, func(i, _ int) int { return i }, Options{
		Workers: 4,
		Progress: func(done, total int) {
			if total != 50 {
				t.Errorf("total = %d, want 50", total)
			}
			calls = append(calls, done)
		},
	})
	if len(calls) != 50 {
		t.Fatalf("progress called %d times, want 50", len(calls))
	}
	for i, d := range calls {
		if d != i+1 {
			t.Fatalf("progress done sequence broken at call %d: got %d", i, d)
		}
	}
}

func TestRunPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("worker panic did not propagate")
		}
		if fmt.Sprint(r) != "boom 13" {
			t.Fatalf("unexpected panic value %v", r)
		}
	}()
	items := make([]int, 32)
	Run(items, func(i, _ int) int {
		if i == 13 {
			panic("boom 13")
		}
		return i
	}, Options{Workers: 4})
}

func TestLogger(t *testing.T) {
	var b strings.Builder
	log := Logger(&b, "grid", time.Hour)
	log(1, 3) // first line always prints
	log(2, 3) // suppressed: within interval, not final
	log(3, 3) // final: always printed
	out := b.String()
	if strings.Count(out, "\n") != 2 {
		t.Fatalf("logger wrote %q, want first and final lines only", out)
	}
	if !strings.Contains(out, "grid: 1/3 points") || !strings.Contains(out, "grid: 3/3 points") {
		t.Fatalf("logger wrote %q", out)
	}
}

func TestLoggerImmediateInterval(t *testing.T) {
	var b strings.Builder
	log := Logger(&b, "grid", 0)
	log(1, 2)
	log(2, 2)
	if strings.Count(b.String(), "\n") != 2 {
		t.Fatalf("logger wrote %q, want two lines", b.String())
	}
}
