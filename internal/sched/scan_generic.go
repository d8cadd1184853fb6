//go:build !amd64 || purego

package sched

import "math"

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
// activation sum, Σ|e| before the price per kWh. This is the portable
// body; amd64 prices four offsets per AVX instruction, or two per SSE2
// instruction, and places as many slices per instruction, with the
// same floats (scan_amd64.s).
func placeOffer(net, cost, imb, lo, hi, energy []float64, costPerKWh float64) (off int, act float64) {
	n := len(lo)
	best := math.Inf(1)
	for k := 0; k+n <= len(net); k++ {
		var delta, a float64
		for j, x := range net[k : k+n] {
			e := fillEnergy(lo[j], hi[j], x)
			delta += penalty(imb[k+j], x+e) - cost[k+j]
			a += math.Abs(e)
		}
		if k == 0 {
			act = a
		}
		if delta += a * costPerKWh; delta < best {
			best, off, act = delta, k, a
		}
	}
	net, cost, imb = net[off:off+n], cost[off:off+n], imb[off:off+n]
	for j, x := range net {
		e := fillEnergy(lo[j], hi[j], x)
		energy[j] = e
		x += e
		net[j], cost[j] = x, penalty(imb[j], x)
	}
	return off, act
}
