//go:build !race

package comm

import (
	"context"
	"testing"

	"mirabel/internal/flexoffer"
)

// The race detector instruments allocations, so the allocation pin only
// runs in plain builds — CI runs both variants.

// TestTCPRoundTripAllocs pins what one offer round trip over an open
// TCP connection allocates, client and server together. Frame headers,
// peer names and reply channels are reused; what is left is the
// request's context work (its default timeout and the frame write's
// cancellation hook, ten allocations), one body copy each way, and the
// handler's own: the decoded body, the offer it carries, and its reply.
func TestTCPRoundTripAllocs(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", func(ctx context.Context, env Envelope) (*Envelope, error) {
		var body FlexOfferSubmit
		if err := env.Decode(MsgFlexOfferSubmit, &body); err != nil {
			return nil, err
		}
		reply, err := NewEnvelope(MsgFlexOfferDecision, "brp1", env.From, FlexOfferDecision{OfferID: body.Offer.ID, Accept: true})
		return &reply, err
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := NewTCPClient("p1")
	defer client.Close()
	client.SetRoute("brp1", srv.Addr())
	offer := &flexoffer.FlexOffer{
		ID: 42, Prosumer: "p1", EarliestStart: 88, LatestStart: 116, AssignBefore: 80,
		Profile: make([]flexoffer.Slice, 4),
	}
	env, err := NewEnvelope(MsgFlexOfferSubmit, "p1", "brp1", FlexOfferSubmit{Offer: offer})
	if err != nil {
		t.Fatal(err)
	}
	const ceiling = 20
	ctx := context.Background()
	if n := testing.AllocsPerRun(2000, func() {
		if _, err := client.Request(ctx, "brp1", env); err != nil {
			t.Fatal(err)
		}
	}); n > ceiling {
		t.Fatalf("an offer round trip allocates %.0f times, want at most %d", n, ceiling)
	}
}
