package store

import "mirabel/internal/flexoffer"

// PutOffer upserts one flex-offer record as a one-record batch. It and
// UpdateOffer are the one-record forms of ApplyBatch and UpdateOffers
// the tests seed and step records with: no binary writes one offer on
// its own, since intake appends events (AppendIntake) and the cycle,
// expiry and settlement update in batches.
func (s *Store) PutOffer(r OfferRecord) error {
	b := NewBatch()
	b.PutOffer(r)
	return s.ApplyBatch(b)
}

// UpdateOffer applies mutate to the stored record as a one-update
// UpdateOffers call and returns the stored result.
func (s *Store) UpdateOffer(id flexoffer.ID, mutate func(*OfferRecord)) (OfferRecord, error) {
	failed, err := s.UpdateOffers([]OfferUpdate{{ID: id, Mutate: mutate}})
	if err != nil {
		return OfferRecord{}, err
	}
	if failed != nil {
		return OfferRecord{}, failed[0]
	}
	rec, _ := s.GetOffer(id)
	return rec, nil
}
