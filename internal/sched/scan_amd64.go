//go:build !purego

package sched

// scanOffsets prices every start offset of one offer under the flat
// imbalance price: deltas[off] is the change in cost that placing the
// offer at offset off (energies by fillEnergy into [lo, hi]) would
// make, activation cost included. net, cost and imb are the position's
// net energies, slot costs and imbalance prices from the offer's first
// feasible start, len(deltas)+len(lo)-1 slots long.
//
// Offsets k and k+1 read adjacent slots, so the SSE2 body in
// scan_amd64.s prices them together, one packed instruction per step of
// the portable body (scan_generic.go), in the same order and without
// fused multiply-adds: the deltas are the portable body's, bit for bit.
//
//go:noescape
func scanOffsets(deltas, net, cost, imb, lo, hi []float64, costPerKWh float64)
