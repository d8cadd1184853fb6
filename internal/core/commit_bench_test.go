package core

import (
	"context"
	"testing"

	"mirabel/internal/agg"
	"mirabel/internal/flexoffer"
	"mirabel/internal/store"
)

// BenchmarkCycleCommit times the commit phase of one scheduling cycle in
// the repository benchmark's cycle shape: 5,000 micro schedules from 50
// aggregates of 100 members go through commitMicroSchedules on a durable
// store that already holds 100,000 scheduled offers, so the state index
// the commit moves ids into is the size a long cycle run sees. Intake,
// aggregation and disaggregation run untimed before each commit.
func BenchmarkCycleCommit(b *testing.B) {
	const (
		preloaded = 100_000
		groups    = 50
		members   = 100
	)
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
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
		var micro []*flexoffer.Schedule
		for _, a := range aggregates(n) {
			ms, err := a.Snapshot().Disaggregate(a.Offer.DefaultSchedule())
			if err != nil {
				b.Fatal(err)
			}
			micro = append(micro, ms...)
		}
		if len(micro) != groups*members {
			b.Fatalf("%d micro schedules, want %d", len(micro), groups*members)
		}
		b.StartTimer()
		byOwner, reconciled, err := n.commitMicroSchedules(micro)
		if err != nil || reconciled != 0 || len(byOwner) == 0 {
			b.Fatalf("commit: %d owners, %d reconciled, %v", len(byOwner), reconciled, err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/op")
}
