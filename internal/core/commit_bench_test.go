package core

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"mirabel/internal/agg"
	"mirabel/internal/flexoffer"
	"mirabel/internal/store"
)

// BenchmarkCycleCommit times the commit phase of one scheduling cycle in
// the repository benchmark's cycle shape: 5,000 micro schedules from 50
// aggregates of 100 members go through commitMicroSchedules on a durable
// store that already holds 5k, 100k or 400k scheduled offers, so the
// table the commit writes into is the size a short, a long and a very
// long cycle run sees. Intake, aggregation, snapshots, disaggregation
// and a garbage collection run untimed before each commit.
func BenchmarkCycleCommit(b *testing.B) {
	for _, preloaded := range []int{5_000, 100_000, 400_000} {
		b.Run(fmt.Sprintf("preloaded=%dk", preloaded/1000), func(b *testing.B) {
			benchmarkCycleCommit(b, preloaded)
		})
	}
}

func benchmarkCycleCommit(b *testing.B, preloaded int) {
	const (
		groups  = 50
		members = 100
	)
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	for lo := 1; lo <= preloaded; lo += 1000 {
		bt := store.NewBatch()
		for id := lo; id < lo+1000; id++ {
			f := testOffer(flexoffer.ID(id), 16, 4, 4, 1)
			bt.PutOffer(store.OfferRecord{Offer: f, Owner: "p0", State: store.OfferScheduled, Schedule: f.DefaultSchedule()})
		}
		if err := st.ApplyBatch(bt); err != nil {
			b.Fatal(err)
		}
	}
	n, err := NewNode(Config{Name: "brp1", Store: st, AggParams: agg.ParamsP3})
	if err != nil {
		b.Fatal(err)
	}
	defer n.Close()

	next := flexoffer.ID(preloaded + 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for g := 0; g < groups; g++ {
			es := flexoffer.Time(16 + 8*g)
			for m := 0; m < members; m++ {
				if d := n.AcceptOffer(testOffer(next, es, 4, 4, float64(1+m%5)), "p"+string(rune('a'+m%20))); !d.Accept {
					b.Fatalf("offer %d rejected: %s", next, d.Reason)
				}
				next++
			}
		}
		if err := n.DrainIngest(context.Background()); err != nil {
			b.Fatal(err)
		}
		plan := defaultPlan(b, n)
		if len(plan) != groups {
			b.Fatalf("%d planned aggregates, want %d", len(plan), groups)
		}
		// A collection here keeps the untimed intake's garbage out of the
		// timed commit, which halves the spread between runs. It also
		// empties the sync.Pools the commit takes its WAL frame buffer
		// and change list from, so each commit regrows them, as the
		// first commit after a collection does in a running node.
		runtime.GC()
		b.StartTimer()
		byOwner, err := n.commitMicroSchedules(plan)
		if err != nil || len(byOwner) == 0 {
			b.Fatalf("commit: %d owners, %v", len(byOwner), err)
		}
	}
	b.StopTimer()
	if got := pendingOffers(n); got != 0 {
		b.Fatalf("%d offers still pending after the commits", got)
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/op")
}
