//go:build !amd64 || purego

package sched

import "math"

// scanOffsets prices every start offset of one offer under the flat
// imbalance price: deltas[off] is the change in cost that placing the
// offer at offset off (energies by fillEnergy into [lo, hi]) would
// make, activation cost included. net, cost and imb are the position's
// net energies, slot costs and imbalance prices from the offer's first
// feasible start, len(deltas)+len(lo)-1 slots long. This is the
// portable body; amd64 prices four offsets per AVX instruction, or two
// per SSE2 instruction, with the same floats (scan_amd64.s).
func scanOffsets(deltas, net, cost, imb, lo, hi []float64, costPerKWh float64) {
	n := len(lo)
	for off := range deltas {
		net, cost, imb := net[off:off+n], cost[off:off+n], imb[off:off+n]
		var delta, act float64
		for j, x := range net {
			e := fillEnergy(lo[j], hi[j], x)
			delta += penalty(imb[j], x+e) - cost[j]
			act += math.Abs(e)
		}
		deltas[off] = delta + act*costPerKWh
	}
}
