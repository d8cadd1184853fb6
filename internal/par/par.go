// Package par runs independent pieces of work on every core.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// For calls fn(i) once for every i in [0, n) and returns when every
// call has returned. The calls run on up to runtime.GOMAXPROCS(0)
// goroutines, the caller's among them, each taking the next index
// until none is left; at one processor, or for a single index, they
// run in order on the caller's goroutine. fn must be safe to call
// concurrently for distinct i, and the result must not depend on the
// order the calls run in.
func For(n int, fn func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	work := func() {
		defer wg.Done()
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(i)
		}
	}
	wg.Add(workers)
	for w := 1; w < workers; w++ {
		go work()
	}
	work()
	wg.Wait()
}
