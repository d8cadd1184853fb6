package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// For calls fn exactly once per index, at one processor and at several,
// for no index, one index and more indices than processors.
func TestForCallsEveryIndexOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 3, 100} {
			calls := make([]atomic.Int32, n)
			For(n, func(i int) { calls[i].Add(1) })
			for i := range calls {
				if c := calls[i].Load(); c != 1 {
					t.Fatalf("GOMAXPROCS %d, n %d: index %d called %d times", procs, n, i, c)
				}
			}
		}
	}
}
