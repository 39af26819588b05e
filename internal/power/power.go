// Package power provides the energy accounting used for the paper's Fig. 11
// comparison: per-event dynamic energies plus static leakage for the
// electrical baseline router (CACTI / Balfour-Dally style) and for the
// hybrid optical router (electrical receivers, drivers and buffers plus the
// provisioned laser transmit power, after Kirman et al.).
//
// The constants are parameterised for 16 nm, 1.0 V, 4 GHz operation. The
// paper's power claims are relative (optical consumes >=70-80% less;
// the 8-hop network is markedly costlier than 4/5-hop); any internally
// consistent choice of absolute constants inside published ranges preserves
// those relationships, which the calibration tests pin down.
package power

import (
	"fmt"
	"math"

	"phastlane/internal/packet"
	"phastlane/internal/photonic"
)

// Per-bit energies at 16 nm (picojoules per bit).
const (
	bufferWritePJPerBit = 0.050
	bufferReadPJPerBit  = 0.050
	crossbarPJPerBit    = 0.040 // 20x4 matrix with input speedup 4
	linkPJPerBitPerMM   = 0.055
	receiverPJPerBit    = 0.008 // optical receive: detector + TIA + latch
	modulatorPJPerBit   = 0.010 // electrical drive of a ring modulator
	// Phastlane's blocked-packet buffers are small and single-ported;
	// they cost less per access than the baseline's multi-ported VC
	// buffers.
	opticalBufferPJPerBit = 0.020
)

// flitBits is the single-flit packet width (payload + control).
const flitBits = packet.PayloadBits + packet.MaxGroups*packet.GroupBits

// Electrical models the baseline virtual-channel router (Table 2).
type Electrical struct {
	// Per-event dynamic energies, pJ.
	BufferWritePJ float64
	BufferReadPJ  float64
	CrossbarPJ    float64
	LinkPJ        float64
	ArbitrationPJ float64
	// LeakageWPerRouter is static power per router: the 10x4 VC
	// buffers, allocators and crossbar dominate.
	LeakageWPerRouter float64
}

// NewElectrical returns the 16 nm baseline energy model.
func NewElectrical() Electrical {
	return Electrical{
		BufferWritePJ:     bufferWritePJPerBit * flitBits,
		BufferReadPJ:      bufferReadPJPerBit * flitBits,
		CrossbarPJ:        crossbarPJPerBit * flitBits,
		LinkPJ:            linkPJPerBitPerMM * flitBits * photonic.TilePitchMM,
		ArbitrationPJ:     2.0,
		LeakageWPerRouter: 0.080,
	}
}

// HopPJ returns the dynamic energy of one flit-hop through the router and
// its outgoing link: buffer write and read, allocation, crossbar, link.
func (e Electrical) HopPJ() float64 {
	return e.BufferWritePJ + e.BufferReadPJ + e.ArbitrationPJ + e.CrossbarPJ + e.LinkPJ
}

// Optical models the Phastlane router's energy: an electrical side
// (receivers, modulator drivers, blocked-packet buffers) plus the optical
// transmit power the laser must provision for the configured worst case.
type Optical struct {
	// TransmitUnicastPJ is the laser energy for one transmission cycle
	// of a unicast packet's wavelengths at the provisioned power.
	TransmitUnicastPJ float64
	// TransmitMulticastPJ adds the tap-compensation: multicast packets
	// must survive power extraction at every intermediate router.
	TransmitMulticastPJ float64
	// ModulatePJ is the electrical energy driving the source (or
	// relaunching buffer's) modulators for one packet.
	ModulatePJ float64
	// ReceivePJ is the electrical energy of receiving a packet
	// (ejection, multicast tap, or capture into a buffer).
	ReceivePJ float64
	// BufferWritePJ and BufferReadPJ cover blocked-packet buffering.
	BufferWritePJ float64
	BufferReadPJ  float64
	// DropNoticePJ is the seven-bit return-path signal.
	DropNoticePJ float64
	// wdm and crossingEff parameterise per-segment transmit energy.
	wdm         int
	crossingEff float64
	// LeakageWPerRouter is static power per router: the five small
	// electrical buffers and receiver front-ends. Far below the
	// electrical baseline's, whose forty VC buffers, speculative
	// allocators and wide crossbar leak continuously.
	LeakageWPerRouter float64
}

// NewOptical derives the Phastlane energy model for a network provisioned
// to cover maxHops links per cycle at the given WDM degree and crossing
// efficiency. Higher maxHops raises the per-wavelength laser power
// exponentially (more crossings and taps before regeneration), which is
// why the 8-hop configuration spends far more transmit power (Fig. 11).
func NewOptical(wdm, maxHops int, crossingEff float64) Optical {
	if maxHops < 1 {
		panic(fmt.Sprintf("power: maxHops %d", maxHops))
	}
	lambdas := float64(photonic.LambdasPerPacket(wdm))
	cycleNS := 1.0 / photonic.DefaultClockGHz
	// Unicast provisioning: survive crossing losses only.
	uniEff := photonic.PathEfficiency(wdm, maxHops, crossingEff) /
		multicastRetention(maxHops)
	uniMW := photonic.ReceiverSensitivityMW / uniEff
	// Multicast provisioning: also survive the per-router taps.
	mcMW := photonic.RequiredInputPowerMW(wdm, maxHops, crossingEff)
	return Optical{
		wdm:                 wdm,
		crossingEff:         crossingEff,
		TransmitUnicastPJ:   uniMW * lambdas * cycleNS,
		TransmitMulticastPJ: mcMW * lambdas * cycleNS,
		ModulatePJ:          modulatorPJPerBit * flitBits,
		ReceivePJ:           receiverPJPerBit * flitBits,
		BufferWritePJ:       opticalBufferPJPerBit * flitBits,
		BufferReadPJ:        opticalBufferPJPerBit * flitBits,
		DropNoticePJ:        1.0,
		LeakageWPerRouter:   0.008,
	}
}

// multicastRetention is the fraction of power remaining after the
// intermediate routers' multicast taps.
func multicastRetention(maxHops int) float64 {
	r := 1.0
	for i := 0; i < maxHops-1; i++ {
		r *= 1 - photonic.MulticastTapFraction
	}
	return r
}

// TransmitSegmentPJ is the laser energy actually spent by one transmission
// covering the given number of links with the given number of intermediate
// multicast taps: the injected power must overcome the crossing losses of
// every router traversed plus each tap's power extraction. This is the
// quantity Fig. 11 averages - "the average transmit power increases
// sharply due to additional crossing losses and the additional receivers
// to drive" in longer-reach configurations.
func (o Optical) TransmitSegmentPJ(links, taps int) float64 {
	if links < 1 {
		panic(fmt.Sprintf("power: segment of %d links", links))
	}
	if taps < 0 || taps >= links {
		taps = links - 1
	}
	crossings := links * photonic.CrossingsPerRouter(o.wdm)
	eff := math.Pow(o.crossingEff, float64(crossings))
	for i := 0; i < taps; i++ {
		eff *= 1 - photonic.MulticastTapFraction
	}
	mw := photonic.ReceiverSensitivityMW / eff
	lambdas := float64(photonic.LambdasPerPacket(o.wdm))
	return mw * lambdas / photonic.DefaultClockGHz
}

// LeakagePJ converts a router-count x cycle-count exposure to static
// energy at the given clock.
func LeakagePJ(leakageWPerRouter float64, routers int, cycles int64, clockGHz float64) float64 {
	seconds := float64(cycles) / (clockGHz * 1e9)
	return leakageWPerRouter * float64(routers) * seconds * 1e12
}
