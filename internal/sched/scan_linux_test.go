package sched

import (
	"fmt"
	"math/rand"
	"syscall"
	"testing"
	"unsafe"
)

// pageFenced returns a copy of v placed against an inaccessible page:
// ending at its first byte (atEnd) or starting right after its last.
// A load one element outside the window faults.
func pageFenced(t *testing.T, v []float64, atEnd bool) []float64 {
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
	return out
}

// TestScanStaysInWindow: with every input window fenced by an
// inaccessible page on one side, the kernel reads nothing outside
// [first, first+width+n), on every path (scanPaths) and at widths
// 0–11, so every mix of quads, a pair and a single ends at the fence.
func TestScanStaysInWindow(t *testing.T) {
	scanPaths(func(path string) {
		rng := rand.New(rand.NewSource(45))
		for _, atEnd := range []bool{true, false} {
			for width := 0; width <= 11; width++ {
				for _, n := range []int{1, 2, 5} {
					sc := randomScanCase(rng, fmt.Sprintf("%s fenced end=%v", path, atEnd), width, n)
					want := make([]float64, width+1)
					scanOracle(want, sc.net, sc.cost, sc.imb, sc.lo, sc.hi, sc.costPerKWh)
					got := pageFenced(t, make([]float64, width+1), atEnd)
					scanOffsets(got, pageFenced(t, sc.net, atEnd), pageFenced(t, sc.cost, atEnd), pageFenced(t, sc.imb, atEnd),
						pageFenced(t, sc.lo, atEnd), pageFenced(t, sc.hi, atEnd), sc.costPerKWh)
					for off := range want {
						if !sameFloat(got[off], want[off]) {
							t.Fatalf("%s width %d n %d: offset %d delta %v, oracle %v", sc.name, width, n, off, got[off], want[off])
						}
					}
				}
			}
		}
	})
}
