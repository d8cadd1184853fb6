package comm

import (
	"context"
	"sync"

	"mirabel/internal/flexoffer"
)

// DefaultFanOutLimit bounds the concurrency of NotifySchedulesAll. It
// trades goroutine and connection pressure against wall time: with l
// slots, a batch of n destinations completes in ceil(n/l) waves of the
// slowest member.
const DefaultFanOutLimit = 32

// fanOut runs fn(i) for every i in [0, n) with at most
// DefaultFanOutLimit invocations in flight and waits for all of them to
// finish. fn must put its outcome somewhere indexed by i; slots are
// claimed before a goroutine is spawned, so at most DefaultFanOutLimit
// goroutines ever exist.
func fanOut(n int, fn func(i int)) {
	if n == 0 {
		return
	}
	sem := make(chan struct{}, min(n, DefaultFanOutLimit))
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// NotifySchedulesAll delivers each owner's schedules concurrently with
// at most DefaultFanOutLimit deliveries in flight. The returned map
// holds one entry per destination that failed; an empty map means every
// owner was notified. Because deliveries overlap, the wall time of a
// batch is bounded by its slowest destination (per wave of
// DefaultFanOutLimit), not by the sum over destinations — the
// scheduling cycle's deliver phase depends on this. The property holds
// end to end on both transports: the Bus dispatches handlers on their
// own goroutines, and the TCP client pipelines concurrent operations
// over one connection per peer instead of serializing them behind a
// client-wide lock.
//
// Cancelling ctx fails the remaining deliveries fast with ctx.Err();
// deliveries already on the wire are not recalled.
func (c *Client) NotifySchedulesAll(ctx context.Context, byOwner map[string][]*flexoffer.Schedule) map[string]error {
	owners := make([]string, 0, len(byOwner))
	for o := range byOwner {
		owners = append(owners, o)
	}
	errs := make([]error, len(owners))
	fanOut(len(owners), func(i int) {
		errs[i] = c.NotifySchedules(ctx, owners[i], byOwner[owners[i]])
	})
	failed := make(map[string]error)
	for i, err := range errs {
		if err != nil {
			failed[owners[i]] = err
		}
	}
	return failed
}
