//go:build !purego

package sched

// scanOffsets prices every start offset of one offer under the flat
// imbalance price: deltas[off] is the change in cost that placing the
// offer at offset off (energies by fillEnergy into [lo, hi]) would
// make, activation cost included. net, cost and imb are the position's
// net energies, slot costs and imbalance prices from the offer's first
// feasible start, len(deltas)+len(lo)-1 slots long.
//
// Adjacent offsets read adjacent slots, so scan_amd64.s prices four of
// them per AVX instruction when useAVX is set and two per SSE2
// instruction otherwise and for the last one to three, one packed
// instruction per step of the portable body (scan_generic.go), in the
// same order and without fused multiply-adds: the deltas are the
// portable body's, bit for bit.
//
//go:noescape
func scanOffsets(deltas, net, cost, imb, lo, hi []float64, costPerKWh float64)

// useAVX selects scanOffsets' quad loop. It is set once, from the CPU
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
