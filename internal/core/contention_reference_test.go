package core

// The stable insertion sort that contentionOrder replaced, kept as the
// reference for the order in which contenders claim output links.

import (
	"math/rand"
	"slices"
	"testing"

	"phastlane/internal/mesh"
)

// refContenderLess is the output-link priority order: straight-through
// beats turns (unless RoundRobinTurns), then input-port order, rotated when
// the round-robin alternative is on.
func refContenderLess(a, b *flight, rrTurns bool, rotate int) bool {
	if !rrTurns {
		sa, sb := a.next == a.travel, b.next == b.travel
		if sa != sb {
			return sa
		}
	}
	pa := (int(a.travel.Opposite()) + rotate) % mesh.NumLinkDirs
	pb := (int(b.travel.Opposite()) + rotate) % mesh.NumLinkDirs
	return pa < pb
}

// refContentionOrder sorts contenders in place by refContenderLess,
// stably.
func refContentionOrder(contenders []*flight, rrTurns bool, rotate int) {
	for i := 1; i < len(contenders); i++ {
		for j := i; j > 0 && refContenderLess(contenders[j], contenders[j-1], rrTurns, rotate); j-- {
			contenders[j], contenders[j-1] = contenders[j-1], contenders[j]
		}
	}
}

// TestContentionOrderMatchesReference checks contentionOrder against the
// insertion sort on random contender lists, short ones full of repeated
// keys and long ones, with straight and turning flights, at every rotation
// with RoundRobinTurns on and off.
func TestContentionOrderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	turns := []mesh.Turn{mesh.Straight, mesh.LeftTurn, mesh.RightTurn}
	for trial := 0; trial < 4000; trial++ {
		src := make([]*flight, rng.Intn(3+trial%40))
		for i := range src {
			travel := mesh.Dir(rng.Intn(mesh.NumLinkDirs))
			src[i] = &flight{travel: travel, next: travel.Turned(turns[rng.Intn(len(turns))])}
		}
		for _, rrTurns := range []bool{false, true} {
			for rotate := 0; rotate < mesh.NumLinkDirs; rotate++ {
				want := slices.Clone(src)
				refContentionOrder(want, rrTurns, rotate)
				got := make([]*flight, len(src))
				contentionOrder(got, src, rrTurns, rotate)
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d, %d contenders, rrTurns %v, rotate %d: order differs from the insertion sort",
						trial, len(src), rrTurns, rotate)
				}
			}
		}
	}
}
