package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"syscall"
	"testing"
	"unsafe"
)

// pageFenced returns a copy of v placed against an inaccessible page:
// ending at its first byte (atEnd) or starting right after its last.
// A load or a store one element outside the window faults; with
// readOnly set, so does a store anywhere in it.
func pageFenced(t *testing.T, v []float64, atEnd, readOnly bool) []float64 {
	t.Helper()
	page := syscall.Getpagesize()
	if len(v)*8 > page {
		t.Fatalf("%d floats do not fit one page", len(v))
	}
	mem, err := syscall.Mmap(-1, 0, 3*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[:page], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	if err := syscall.Mprotect(mem[2*page:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	off := page
	if atEnd {
		off = 2*page - len(v)*8
	}
	out := unsafe.Slice((*float64)(unsafe.Pointer(&mem[off])), len(v))
	copy(out, v)
	if readOnly {
		if err := syscall.Mprotect(mem[page:2*page], syscall.PROT_READ); err != nil {
			t.Skipf("mprotect: %v", err)
		}
	}
	return out
}

// TestScanStaysInWindow: with every input window fenced by an
// inaccessible page on one side, placeOffer reads nothing outside
// [first, first+width+n) and writes nothing outside net, cost and
// energy: imb, lo and hi are read-only pages, so a store into them
// faults, and the writable windows must match the oracle's float for
// float, so a store into a slot other than the winner's shows. It runs
// on every path (scanPaths) and at widths 0–11, so every mix of quads,
// a pair and a single ends at the fence, and with slice counts that
// end the placement on each of its loops.
func TestScanStaysInWindow(t *testing.T) {
	scanPaths(func(path string) {
		rng := rand.New(rand.NewSource(45))
		for _, atEnd := range []bool{true, false} {
			for width := 0; width <= 11; width++ {
				for _, n := range []int{1, 2, 5, 7} {
					sc := randomScanCase(rng, fmt.Sprintf("%s fenced end=%v", path, atEnd), width, n)
					wantNet, wantCost, wantEnergy := slices.Clone(sc.net), slices.Clone(sc.cost), make([]float64, n)
					wantOff, wantAct := placeOracle(wantNet, wantCost, sc.imb, sc.lo, sc.hi, wantEnergy, sc.costPerKWh)
					net, cost, energy := pageFenced(t, sc.net, atEnd, false), pageFenced(t, sc.cost, atEnd, false), pageFenced(t, make([]float64, n), atEnd, false)
					off, act := placeOffer(net, cost, pageFenced(t, sc.imb, atEnd, true),
						pageFenced(t, sc.lo, atEnd, true), pageFenced(t, sc.hi, atEnd, true), energy, sc.costPerKWh)
					name := fmt.Sprintf("%s width %d n %d", sc.name, width, n)
					if off != wantOff || !sameFloat(act, wantAct) {
						t.Fatalf("%s: offset %d act %v, oracle offset %d act %v", name, off, act, wantOff, wantAct)
					}
					checkSame(t, name+" net", net, wantNet)
					checkSame(t, name+" cost", cost, wantCost)
					checkSame(t, name+" energy", energy, wantEnergy)
				}
			}
		}
	})
}
