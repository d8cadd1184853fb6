package prosumer

import (
	"context"
	"errors"
	"math"
	"testing"

	"mirabel/internal/comm"
	"mirabel/internal/flexoffer"
)

func testOffer(id flexoffer.ID) *flexoffer.FlexOffer {
	return &flexoffer.FlexOffer{
		ID: id, EarliestStart: 40, LatestStart: 56, AssignBefore: 32,
		Profile: []flexoffer.Slice{{EnergyMax: 5}, {EnergyMax: 5}},
	}
}

// fakeBRP registers name on bus as a BRP that answers each flex-offer
// submit with decide's verdict. An error from decide fails the call
// after the offer arrived, as an ambiguous failure does.
func fakeBRP(bus *comm.Bus, name string, decide func(ctx context.Context, from string, f *flexoffer.FlexOffer) (bool, error)) {
	bus.Register(name, func(ctx context.Context, env comm.Envelope) (*comm.Envelope, error) {
		var body comm.FlexOfferSubmit
		if err := env.Decode(comm.MsgFlexOfferSubmit, &body); err != nil {
			return nil, err
		}
		accept, err := decide(ctx, env.From, body.Offer)
		if err != nil {
			return nil, err
		}
		reply, err := comm.NewEnvelope(comm.MsgFlexOfferDecision, name, env.From, comm.FlexOfferDecision{OfferID: body.Offer.ID, Accept: accept})
		return &reply, err
	})
}

func acceptAll(context.Context, string, *flexoffer.FlexOffer) (bool, error) { return true, nil }

// newEndpoint builds p1 on bus and registers it there.
func newEndpoint(bus *comm.Bus) *Endpoint {
	p := New("p1", comm.NewClient("p1", bus))
	bus.Register("p1", p.Handler())
	return p
}

func notify(from string, schedules ...*flexoffer.Schedule) comm.Envelope {
	env, _ := comm.NewEnvelope(comm.MsgScheduleNotify, from, "p1", comm.ScheduleNotify{Schedules: schedules})
	return env
}

func submit(t *testing.T, p *Endpoint, brp string, id flexoffer.ID, accept bool) {
	t.Helper()
	if d, err := p.Submit(context.Background(), brp, testOffer(id)); err != nil || d.Accept != accept {
		t.Fatalf("submit %d to %s: %+v, %v; want accept=%v", id, brp, d, err, accept)
	}
}

// TestProsumerTakesSchedulesFromItsBRPOnly: a notify is refused whole
// when it comes from anyone but the BRP the offer went to — a stranger
// or another BRP the endpoint also submits to — when it names an offer
// never submitted, or one the BRP rejected. Nothing of a refused notify
// is held; the BRP's own notify is taken afterwards.
func TestProsumerTakesSchedulesFromItsBRPOnly(t *testing.T) {
	bus := comm.NewBus()
	fakeBRP(bus, "brp1", func(_ context.Context, _ string, f *flexoffer.FlexOffer) (bool, error) { return f.ID != 3, nil })
	fakeBRP(bus, "brp2", acceptAll)
	p := newEndpoint(bus)
	submit(t, p, "brp1", 1, true)
	submit(t, p, "brp2", 2, true)
	submit(t, p, "brp1", 3, false)
	known := &flexoffer.Schedule{OfferID: 1, Start: 40, Energy: []float64{1, 1}}
	for i, tc := range []struct {
		name string
		env  comm.Envelope
	}{
		{"from a stranger", notify("mallory", known)},
		{"from another BRP of the endpoint", notify("brp2", known)},
		{"for an offer never submitted", notify("brp1", known, &flexoffer.Schedule{OfferID: 999, Start: 40, Energy: []float64{1}})},
		{"for a rejected offer", notify("brp1", known, &flexoffer.Schedule{OfferID: 3, Start: 40, Energy: []float64{1, 1}})},
	} {
		if _, err := p.Handler()(context.Background(), tc.env); err == nil {
			t.Errorf("%s: notify taken", tc.name)
		}
		if held := p.Schedules(); len(held) != 0 {
			t.Errorf("%s: schedules held %v, want none", tc.name, held)
		}
		if got := p.Refused(); got != uint64(i+1) {
			t.Errorf("%s: refused = %d, want %d", tc.name, got, i+1)
		}
	}
	if _, err := p.Handler()(context.Background(), notify("brp1", known)); err != nil {
		t.Fatalf("the BRP's own notify refused: %v", err)
	}
	if s := p.Schedules()[1]; s == nil || s.Start != 40 {
		t.Errorf("schedule of offer 1 = %+v", s)
	}
}

// TestNotifyRejectsNonFinite: the binary wire format carries NaN and
// ±Inf; a notify holding one is refused whole, so the finite schedule
// beside it is not held either.
func TestNotifyRejectsNonFinite(t *testing.T) {
	bus := comm.NewBus()
	fakeBRP(bus, "brp1", acceptAll)
	p := newEndpoint(bus)
	submit(t, p, "brp1", 7, true)
	submit(t, p, "brp1", 8, true)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		env := notify("brp1", &flexoffer.Schedule{OfferID: 7, Start: 40, Energy: []float64{1, 1}}, &flexoffer.Schedule{OfferID: 8, Start: 40, Energy: []float64{1, bad}})
		if _, err := p.Handler()(context.Background(), env); err == nil {
			t.Errorf("schedule notify holding energy %g taken", bad)
		}
	}
	if held := p.Schedules(); len(held) != 0 {
		t.Errorf("the finite schedule of a refused notify was held: %v", held)
	}
}

// TestConcurrentNotifyBeforeDecision: delivery can race the decision reply.
// A BRP that delivers the schedule before it answers the submit, and
// one whose answer is lost after the offer arrived, both get their
// notify taken. Run it with -race: the notify is handled on the bus's
// goroutine while Submit waits for its reply.
func TestConcurrentNotifyBeforeDecision(t *testing.T) {
	bus := comm.NewBus()
	fakeBRP(bus, "brp1", func(ctx context.Context, from string, f *flexoffer.FlexOffer) (bool, error) {
		if _, err := bus.Request(ctx, from, notify("brp1", f.DefaultSchedule())); err != nil {
			t.Errorf("offer %d: early notify refused: %v", f.ID, err)
		}
		return true, nil
	})
	fakeBRP(bus, "brp2", func(context.Context, string, *flexoffer.FlexOffer) (bool, error) {
		return false, errors.New("reply lost")
	})
	p := newEndpoint(bus)
	submit(t, p, "brp1", 1, true)
	if _, err := p.Submit(context.Background(), "brp2", testOffer(2)); err == nil {
		t.Fatal("the lost reply reached the endpoint")
	}
	if _, err := bus.Request(context.Background(), "p1", notify("brp2", testOffer(2).DefaultSchedule())); err != nil {
		t.Errorf("notify after an ambiguous failure refused: %v", err)
	}
	if held, refused := p.Schedules(), p.Refused(); len(held) != 2 || refused != 0 {
		t.Errorf("held %d schedules with %d refused, want 2 and none", len(held), refused)
	}
}

// TestProsumerRefusesOffers: the endpoint takes no flex-offers; it
// answers a ping.
func TestProsumerRefusesOffers(t *testing.T) {
	p := New("p1", comm.NewClient("p1", comm.NewBus()))
	env, _ := comm.NewEnvelope(comm.MsgFlexOfferSubmit, "x", "p1", comm.FlexOfferSubmit{Offer: testOffer(1)})
	if _, err := p.Handler()(context.Background(), env); !errors.Is(err, comm.ErrNoHandler) {
		t.Errorf("flex-offer submit: %v, want comm.ErrNoHandler", err)
	}
	ping, _ := comm.NewEnvelope(comm.MsgPing, "x", "p1", nil)
	if reply, err := p.Handler()(context.Background(), ping); err != nil || reply == nil || reply.Type != comm.MsgPong {
		t.Errorf("ping reply = %+v, %v", reply, err)
	}
}
