package sim_test

import (
	"testing"

	"phastlane/internal/sim"
)

// TestProvenanceOffIsFree asserts the nil-tracker path installs no
// tracer: with neither a collector nor a tracker configured, both
// networks run the same zero-allocation steady state the kernel tests
// pin, and the harness branch on a nil *Tracker costs nothing per
// message. (The per-network zero-alloc pins live in kernel_test.go; this
// test guards the ledger's tracer attachment specifically: a nil
// collector and nil tracker must tee to a nil tracer.)
func TestProvenanceOffIsFree(t *testing.T) {
	for _, tc := range []struct {
		name   string
		newNet func() sim.Network
	}{
		{"optical", optical},
		{"electrical", baseline},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stepZeroAlloc(t, tc.newNet(), 500, 0)
		})
	}
}
