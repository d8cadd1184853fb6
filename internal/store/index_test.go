package store

import (
	"math/rand"
	"reflect"
	"testing"

	"mirabel/internal/flexoffer"
)

// indexAnswers is everything the offer index answers: Offers by state,
// by owner and by both, and the per-state counts.
func indexAnswers(s *Store, states []OfferState, owners []string) map[string]any {
	out := map[string]any{"counts": s.CountOffersByState()}
	for _, st := range states {
		out["state "+string(st)] = s.Offers(OfferFilter{State: st})
		for _, o := range owners {
			out["state "+string(st)+" owner "+o] = s.Offers(OfferFilter{State: st, Owner: o})
		}
	}
	for _, o := range owners {
		out["owner "+o] = s.Offers(OfferFilter{Owner: o})
	}
	return out
}

// TestReopenedIndexMatchesLive: recovery builds the offer index once,
// after the last file, where a live store moves each offer between
// buckets write by write. Over a seeded random history of puts, batch
// upserts, transitions with and without a schedule, owner changes and
// refused intake records, a store reopened with Open or OpenReadOnly answers
// every indexed query as the live store did. The subtest keeps the name
// it had when a second variant took a snapshot midway: -1 is the run
// that takes none and replays the whole WAL.
func TestReopenedIndexMatchesLive(t *testing.T) {
	t.Run("snapshot at -1", reopenedIndexMatchesLive)
}

func reopenedIndexMatchesLive(t *testing.T) {
	states := []OfferState{"", OfferAccepted, OfferScheduled, OfferExecuted, OfferExpired, OfferCancelled, "held-for-review"}
	owners := []string{"p0", "p1", "p2", "p3"}
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.SetIntakeHandoff(ignoreIntake)
	rng := rand.New(rand.NewSource(29))
	owner := func() string { return owners[rng.Intn(len(owners))] }
	state := func() OfferState { return states[1+rng.Intn(len(states)-1)] }
	var ids []flexoffer.ID
	newRecord := func() OfferRecord {
		id := flexoffer.ID(len(ids) + 1)
		ids = append(ids, id)
		return OfferRecord{Offer: testOffer(id), Owner: owner(), State: OfferAccepted}
	}
	stored := func() flexoffer.ID { return ids[rng.Intn(len(ids))] }
	update := func(mutate func(*OfferRecord)) {
		if _, err := s.UpdateOffer(stored(), mutate); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 400; i++ {
		switch k := rng.Intn(7); {
		case k == 0 || len(ids) < 5:
			if err := s.PutOffer(newRecord()); err != nil {
				t.Fatal(err)
			}
		case k == 1: // a new offer and an upsert over a stored one
			old, _ := s.GetOffer(stored())
			b := NewBatch()
			b.PutOffer(newRecord())
			b.PutOffer(OfferRecord{Offer: old.Offer, Owner: owner(), State: state()})
			if err := s.ApplyBatch(b); err != nil {
				t.Fatal(err)
			}
		case k == 2:
			id := stored()
			before, _ := s.GetOffer(id)
			if err := ingest(s, Intake{Offer: &OfferRecord{Offer: testOffer(id), Owner: owner(), State: OfferRejected}}); err != nil {
				t.Fatal(err)
			}
			if after, _ := s.GetOffer(id); after != before {
				t.Fatalf("rejected intake record over stored offer %d replaced it: %+v", id, after)
			}
		case k == 3: // a state-only step
			st := state()
			update(func(r *OfferRecord) { r.State = st })
		case k == 4: // transitions that set and clear a schedule, as one batch
			ups := make([]OfferUpdate, 1+rng.Intn(4))
			for j := range ups {
				clear := rng.Intn(3) == 0
				ups[j] = OfferUpdate{ID: stored(), Mutate: func(r *OfferRecord) {
					if clear {
						r.State, r.Schedule = OfferAccepted, nil
					} else {
						scheduleOffer(r)
					}
				}}
			}
			if _, err := s.UpdateOffers(ups); err != nil {
				t.Fatal(err)
			}
		case k == 5:
			o := owner()
			update(func(r *OfferRecord) { r.Owner = o })
		default:
			update(executeOffer)
		}
	}
	want := indexAnswers(s, states, owners)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for name, open := range map[string]func(string) (*Store, error){"Open": func(d string) (*Store, error) { return Open(d) }, "OpenReadOnly": OpenReadOnly} {
		re, err := open(dir)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := indexAnswers(re, states, owners)
		re.Close()
		for q, w := range want {
			if !reflect.DeepEqual(got[q], w) {
				t.Errorf("%s: %s = %v, live store had %v", name, q, got[q], w)
			}
		}
	}
}
