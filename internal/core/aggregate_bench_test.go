package core

import (
	"runtime"
	"testing"
	"time"

	"mirabel/internal/agg"
	"mirabel/internal/flexoffer"
)

// BenchmarkCycleAggregate times the cycle's aggregation path on one
// pipeline in steady state: every iteration feeds it one round of
// cycleOffers (5,000 offers at the benchmark cycle's shape, renumbered
// so no ID repeats), untimed, and times the two places a cycle works
// the pipeline — Process plus the planning snapshots
// (processAndSnapshot, the cycle's AggregationTime), and every planned
// aggregate's LeaveWhole plus the Process that retires them (the
// pipeline's share of the commit). The members of the aggregates a
// cycle leaves out are deleted untimed afterwards, so every iteration
// starts from an empty pipeline. Each part is reported in ms/op.
func BenchmarkCycleAggregate(b *testing.B) {
	const horizon = flexoffer.SlotsPerDay
	now := flexoffer.Time(flexoffer.SlotsPerDay)
	end := now + horizon
	round := cycleOffers(now)
	p := agg.NewPipeline(agg.ParamsP3)
	next := flexoffer.ID(1)
	var slots []uint64
	var processing, leaving time.Duration
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range round {
			c := *f
			c.ID = next
			next++
			if err := p.Accumulate(agg.FlexOfferUpdate{Kind: agg.Insert, Offer: &c}); err != nil {
				b.Fatal(err)
			}
		}
		runtime.GC()

		t0 := time.Now()
		snaps := processAndSnapshot(p, now, end)
		t1 := time.Now()
		var ok bool
		for _, s := range snaps {
			if slots, ok = p.LeaveWhole(s, slots[:0]); !ok {
				b.Fatalf("aggregate %d refused to leave whole", s.Offer.ID)
			}
		}
		p.Process()
		t2 := time.Now()
		processing += t1.Sub(t0)
		leaving += t2.Sub(t1)

		var left []agg.FlexOfferUpdate
		p.EachOffer(func(f *flexoffer.FlexOffer) {
			left = append(left, agg.FlexOfferUpdate{Kind: agg.Delete, Offer: f})
		})
		if err := p.Apply(left...); err != nil {
			b.Fatal(err)
		}
		if len(snaps) < 40 || p.NumOffers() != 0 {
			b.Fatalf("%d aggregates planned, %d offers left; not the cycle's shape", len(snaps), p.NumOffers())
		}
	}
	b.ReportMetric(float64(processing.Microseconds())/1e3/float64(b.N), "process+snapshots-ms/op")
	b.ReportMetric(float64(leaving.Microseconds())/1e3/float64(b.N), "leave+process-ms/op")
}
