package main

import (
	"reflect"
	"testing"

	"mirabel/internal/flexoffer"
	"mirabel/internal/negotiate"
)

func TestGeneratorSameSeedSameInputs(t *testing.T) {
	a, b, other := newGenerator(7), newGenerator(7), newGenerator(8)
	differs := false
	for k := 0; k < 2000; k++ {
		planAt := planSlot(k / 500)
		fa, fb := a.offer(k, planAt), b.offer(k, planAt)
		if !reflect.DeepEqual(fa, fb) {
			t.Fatalf("offer %d differs between two generators of one seed:\n%v\n%v", k, fa, fb)
		}
		if fa.ID != flexoffer.ID(k+1) {
			t.Fatalf("offer %d has ID %d", k, fa.ID)
		}
		if !reflect.DeepEqual(fa, other.offer(k, planAt)) {
			differs = true
		}
	}
	if !differs {
		t.Error("seeds 7 and 8 generate the same offers")
	}
	for q := 0; q < 700; q++ {
		if !reflect.DeepEqual(a.batch(q), b.batch(q)) {
			t.Fatalf("batch %d differs between two generators of one seed", q)
		}
	}
}

// Every offer must be valid, accepted by the default valuator at the
// planning time the node has when the offer arrives (the previous
// round's; zero before the first cycle), and — unless it is one of the
// pinned few that arrive too late — schedulable at its own round's.
func TestGeneratorOffersAcceptedAndSchedulable(t *testing.T) {
	const perRound, rounds = 5000, 5
	// Pinned for seed 7: a change to the generator or to
	// workload.GenerateFlexOffers that moves these moves every metric.
	wantExpired := [rounds]int{65, 94, 96, 98, 65}

	g := newGenerator(7)
	v := negotiate.NewValuator()
	for r := 0; r < rounds; r++ {
		planAt := planSlot(r)
		arrival := flexoffer.Time(0)
		if r > 0 {
			arrival = planSlot(r - 1)
		}
		expired, refused := 0, 0
		for k := r * perRound; k < (r+1)*perRound; k++ {
			f := g.offer(k, planAt)
			if err := f.Validate(); err != nil {
				t.Fatalf("offer %d invalid: %v", k, err)
			}
			if d := v.Decide(f, arrival); !d.Accept {
				refused++
			}
			if f.CostPerKWh >= v.MaxPremiumEUR {
				t.Fatalf("offer %d asks %.3f EUR/kWh, at or over the valuator's ceiling", k, f.CostPerKWh)
			}
			if expiresAt(f, planAt) {
				expired++
				if f.AssignBefore != planAt {
					t.Fatalf("offer %d expires for another reason than its assignment deadline: %v at %d", k, f, planAt)
				}
			}
		}
		if refused != 0 {
			t.Errorf("round %d: %d offers refused, want 0", r, refused)
		}
		if expired != wantExpired[r] {
			t.Errorf("round %d: %d offers expire at planning time, want %d", r, expired, wantExpired[r])
		}
	}
}

func TestBatchesArriveInSlotOrderPerSeries(t *testing.T) {
	g := newGenerator(7)
	next := make(map[string]flexoffer.Time)
	for q := 0; q < 3*households; q++ {
		b := g.batch(q)
		if len(b) != factsPerBatch {
			t.Fatalf("batch %d has %d facts", q, len(b))
		}
		for _, m := range b {
			if m.Actor != b[0].Actor || m.Slot != next[m.Actor] || m.KWh <= 0 {
				t.Fatalf("batch %d: fact %+v, want actor %s slot %d and positive energy", q, m, b[0].Actor, next[m.Actor])
			}
			next[m.Actor]++
		}
	}
	if len(next) != households {
		t.Errorf("%d series, want %d", len(next), households)
	}
}
