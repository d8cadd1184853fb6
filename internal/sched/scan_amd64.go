//go:build !purego

package sched

// placeOffer places one offer at its best start under the flat
// imbalance price, in one call. net, cost and imb are the position's
// net energies, slot costs and imbalance prices from the offer's first
// feasible start, len(lo)+width slots long for width+1 start offsets.
// It prices every offset (the change in cost that placing the offer
// there, energies by fillEnergy into [lo, hi], would make, activation
// cost included), keeps the first strict minimum in offset order
// (offset 0 when no delta is below +Inf), and places the offer there:
// energy[j] = e, net += e, cost = penalty(imb, net) on the winner's
// slots, nothing else written. It returns the winner's offset and its
// activation sum, Σ|e| before the price per kWh.
//
// Adjacent offsets read adjacent slots, so scan_amd64.s prices four of
// them per AVX instruction when useAVX is set and two per SSE2
// instruction otherwise and for the last one to three, one packed
// instruction per step of the portable body (scan_generic.go), in the
// same order and without fused multiply-adds, and places four or two
// slices per instruction: the offset, the activation sum and every
// float written are the portable body's, bit for bit.
//
//go:noescape
func placeOffer(net, cost, imb, lo, hi, energy []float64, costPerKWh float64) (off int, act float64)

// useAVX selects placeOffer's quad loops. It is set once, from the CPU
// and the OS; only tests change it, to run the SSE2 path on an AVX host.
var useAVX = hasAVX()

// hasAVX reports whether the CPU has AVX (CPUID.1:ECX bit 28) and the
// OS saves the YMM registers: OSXSAVE (bit 27) and XCR0 bits 1 (SSE
// state) and 2 (AVX state).
func hasAVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if cpuid1()&(osxsave|avx) != osxsave|avx {
		return false
	}
	return xgetbv0()&6 == 6
}

// cpuid1 returns ECX of CPUID leaf 1, the feature bits hasAVX reads.
func cpuid1() (ecx uint32)

// xgetbv0 returns the low half of XCR0, the register states the OS
// saves on a context switch.
func xgetbv0() (eax uint32)
