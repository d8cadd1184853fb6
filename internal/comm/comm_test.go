package comm

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"mirabel/internal/flexoffer"
)

func TestEnvelopeRoundtrip(t *testing.T) {
	offer := &flexoffer.FlexOffer{
		ID: 7, EarliestStart: 10, LatestStart: 20, AssignBefore: 5,
		Profile: []flexoffer.Slice{{EnergyMin: 1, EnergyMax: 2.5}},
	}
	env, err := NewEnvelope(MsgFlexOfferSubmit, "p1", "brp1", FlexOfferSubmit{Offer: offer})
	if err != nil {
		t.Fatal(err)
	}
	var got FlexOfferSubmit
	if err := env.Decode(MsgFlexOfferSubmit, &got); err != nil {
		t.Fatal(err)
	}
	if got.Offer.ID != 7 || got.Offer.Profile[0].EnergyMax != 2.5 {
		t.Errorf("roundtrip = %+v", got.Offer)
	}
}

func TestDecodeWrongType(t *testing.T) {
	env, _ := NewEnvelope(MsgPing, "a", "b", nil)
	var out FlexOfferSubmit
	if err := env.Decode(MsgFlexOfferSubmit, &out); err == nil {
		t.Error("wrong type accepted")
	}
}

func TestBusRequestReply(t *testing.T) {
	bus := NewBus()
	bus.Register("brp1", func(ctx context.Context, env Envelope) (*Envelope, error) {
		reply, err := NewEnvelope(MsgPong, "brp1", env.From, nil)
		return &reply, err
	})
	env, _ := NewEnvelope(MsgPing, "p1", "brp1", nil)
	reply, err := bus.Request(context.Background(), "brp1", env)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != MsgPong {
		t.Errorf("reply = %+v", reply)
	}
}

func TestBusUnreachable(t *testing.T) {
	ctx := context.Background()
	bus := NewBus()
	env, _ := NewEnvelope(MsgPing, "p1", "ghost", nil)
	if err := bus.Send(ctx, "ghost", env); !errors.Is(err, ErrUnreachable) {
		t.Errorf("Send err = %v", err)
	}
	if _, err := bus.Request(ctx, "ghost", env); !errors.Is(err, ErrUnreachable) {
		t.Errorf("Request err = %v", err)
	}
	// A node can drop off the bus (paper: "nodes unreachable").
	bus.Register("x", func(context.Context, Envelope) (*Envelope, error) { return nil, nil })
	bus.Unregister("x")
	if err := bus.Send(ctx, "x", env); !errors.Is(err, ErrUnreachable) {
		t.Errorf("Send after Unregister err = %v", err)
	}
}

func TestBusSendAsync(t *testing.T) {
	bus := NewBus()
	var count atomic.Int32
	done := make(chan struct{})
	bus.Register("sink", func(context.Context, Envelope) (*Envelope, error) {
		if count.Add(1) == 10 {
			close(done)
		}
		return nil, nil
	})
	env, _ := NewEnvelope(MsgPing, "src", "sink", nil)
	for i := 0; i < 10; i++ {
		if err := bus.Send(context.Background(), "sink", env); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("async sends not delivered")
	}
}

func TestBusSendOutlivesCallerCancellation(t *testing.T) {
	// A message accepted by Send is "on the wire": the handler must run
	// even if the caller's context is canceled immediately after.
	bus := NewBus()
	delivered := make(chan struct{})
	bus.Register("sink", func(ctx context.Context, _ Envelope) (*Envelope, error) {
		if err := ctx.Err(); err != nil {
			t.Errorf("handler context already canceled: %v", err)
		}
		close(delivered)
		return nil, nil
	})
	ctx, cancel := context.WithCancel(context.Background())
	env, _ := NewEnvelope(MsgPing, "src", "sink", nil)
	if err := bus.Send(ctx, "sink", env); err != nil {
		t.Fatal(err)
	}
	cancel()
	select {
	case <-delivered:
	case <-time.After(2 * time.Second):
		t.Fatal("send dropped after caller cancellation")
	}
}

// Wait holds while a handler Send started is still running and returns
// once it is released, with what the handler recorded visible.
func TestBusWaitJoinsSendHandlers(t *testing.T) {
	bus := NewBus()
	entered, release := make(chan struct{}), make(chan struct{})
	var handled atomic.Bool
	bus.Register("sink", func(context.Context, Envelope) (*Envelope, error) {
		close(entered)
		<-release
		handled.Store(true)
		return nil, nil
	})
	env, _ := NewEnvelope(MsgPing, "src", "sink", nil)
	if err := bus.Send(context.Background(), "sink", env); err != nil {
		t.Fatal(err)
	}
	<-entered
	waited := make(chan struct{})
	go func() {
		bus.Wait()
		close(waited)
	}()
	select {
	case <-waited:
		t.Fatal("Wait returned while the handler was blocked")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case <-waited:
	case <-time.After(2 * time.Second):
		t.Fatal("Wait did not return after the handler was released")
	}
	if !handled.Load() {
		t.Error("Wait returned before the handler finished")
	}
}

func TestBusRequestDeadline(t *testing.T) {
	bus := NewBus()
	bus.Register("slow", func(ctx context.Context, _ Envelope) (*Envelope, error) {
		select {
		case <-time.After(5 * time.Second):
		case <-ctx.Done():
		}
		return nil, ctx.Err()
	})
	env, _ := NewEnvelope(MsgPing, "p", "slow", nil)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := bus.Request(ctx, "slow", env)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want DeadlineExceeded", err)
	}
}

func TestBusConcurrentRegisterAndSend(t *testing.T) {
	bus := NewBus()
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("n%d", i)
			bus.Register(name, func(context.Context, Envelope) (*Envelope, error) { return nil, nil })
			env, _ := NewEnvelope(MsgPing, "x", name, nil)
			_ = bus.Send(context.Background(), name, env)
		}(i)
	}
	wg.Wait()
	for i := 0; i < 20; i++ {
		if _, err := bus.handler(fmt.Sprintf("n%d", i)); err != nil {
			t.Errorf("endpoint n%d: %v", i, err)
		}
	}
}

func TestTCPRequestReply(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", func(ctx context.Context, env Envelope) (*Envelope, error) {
		var req FlexOfferSubmit
		if err := env.Decode(MsgFlexOfferSubmit, &req); err != nil {
			return nil, err
		}
		reply, err := NewEnvelope(MsgFlexOfferDecision, "brp1", env.From, FlexOfferDecision{
			OfferID: req.Offer.ID, Accept: true, PremiumEUR: 0.03,
		})
		return &reply, err
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client := NewTCPClient("p1")
	defer client.Close()
	client.SetRoute("brp1", srv.Addr())

	offer := &flexoffer.FlexOffer{ID: 100, EarliestStart: 4, LatestStart: 8,
		Profile: []flexoffer.Slice{{EnergyMin: 0, EnergyMax: 2}}}
	env, _ := NewEnvelope(MsgFlexOfferSubmit, "p1", "brp1", FlexOfferSubmit{Offer: offer})
	reply, err := client.Request(context.Background(), "brp1", env)
	if err != nil {
		t.Fatal(err)
	}
	var body FlexOfferDecision
	if err := reply.Decode(MsgFlexOfferDecision, &body); err != nil {
		t.Fatal(err)
	}
	if body.OfferID != 100 || !body.Accept || body.PremiumEUR != 0.03 {
		t.Errorf("reply body = %+v", body)
	}
	if reply.Seq == 0 {
		t.Error("reply lost the correlation id")
	}
}

func TestTCPHandlerErrorPropagates(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", func(context.Context, Envelope) (*Envelope, error) {
		return nil, fmt.Errorf("no capacity")
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := NewTCPClient("p1")
	defer client.Close()
	client.SetRoute("brp1", srv.Addr())
	env, _ := NewEnvelope(MsgPing, "p1", "brp1", nil)
	if _, err := client.Request(context.Background(), "brp1", env); err == nil {
		t.Error("handler error not propagated")
	}
}

func TestTCPFireAndForgetDelivers(t *testing.T) {
	// Send is true fire-and-forget: it returns once the frame is on the
	// wire, so delivery is asynchronous — like Bus.Send — and the
	// server's pong replies are discarded by the demux loop.
	var count atomic.Int32
	srv, err := ListenTCP("127.0.0.1:0", func(context.Context, Envelope) (*Envelope, error) {
		count.Add(1)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := NewTCPClient("p1")
	defer client.Close()
	client.SetRoute("brp1", srv.Addr())
	env, _ := NewEnvelope(MsgMeasurementBatch, "p1", "brp1", MeasurementBatch{Reports: []MeasurementReport{{Actor: "p1", Slot: 3, KWh: 1}}})
	for i := 0; i < 5; i++ {
		if err := client.Send(context.Background(), "brp1", env); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(2 * time.Second); count.Load() != 5; {
		if time.Now().After(deadline) {
			t.Fatalf("delivered = %d, want 5", count.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if got := client.Stats().Sends; got != 5 {
		t.Errorf("Stats().Sends = %d, want 5", got)
	}
}

func TestTCPNoRoute(t *testing.T) {
	client := NewTCPClient("p1")
	defer client.Close()
	env, _ := NewEnvelope(MsgPing, "p1", "ghost", nil)
	if _, err := client.Request(context.Background(), "ghost", env); !errors.Is(err, ErrUnreachable) {
		t.Errorf("err = %v", err)
	}
}

func TestTCPReconnectAfterServerRestart(t *testing.T) {
	handler := func(ctx context.Context, env Envelope) (*Envelope, error) {
		reply, err := NewEnvelope(MsgPong, "srv", env.From, nil)
		return &reply, err
	}
	srv, err := ListenTCP("127.0.0.1:0", handler)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	client := NewTCPClient("p1")
	defer client.Close()
	client.SetRoute("srv", addr)
	env, _ := NewEnvelope(MsgPing, "p1", "srv", nil)
	if _, err := client.Request(context.Background(), "srv", env); err != nil {
		t.Fatal(err)
	}
	// Restart the server on the same address.
	srv.Close()
	srv2, err := ListenTCP(addr, handler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	// The peer's connection is stale; the client only classifies the
	// failure, and the retry policy redials through a fresh connection.
	rt := NewRetry(client, RetryConfig{})
	if _, err := rt.Request(context.Background(), "srv", env); err != nil {
		t.Errorf("request after restart: %v", err)
	}
}

func TestTCPConcurrentClients(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", func(ctx context.Context, env Envelope) (*Envelope, error) {
		reply, err := NewEnvelope(MsgPong, "srv", env.From, nil)
		return &reply, err
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 10)
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := NewTCPClient(fmt.Sprintf("c%d", i))
			defer c.Close()
			c.SetRoute("srv", srv.Addr())
			env, _ := NewEnvelope(MsgPing, c.from, "srv", nil)
			for j := 0; j < 20; j++ {
				if _, err := c.Request(context.Background(), "srv", env); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// readFrame reads one frame straight off r, unbuffered, so successive
// calls on one connection see successive frames.
func readFrame(r io.Reader) (Envelope, error) {
	return (&frameReader{r: r}).next()
}

// Property: envelopes survive a frame roundtrip bit-exactly for
// arbitrary measurement payloads.
func TestPropertyFrameRoundtrip(t *testing.T) {
	f := func(actor string, slot int32, kwh float64) bool {
		env, err := NewEnvelope(MsgMeasurementBatch, "a", "b", MeasurementBatch{Reports: []MeasurementReport{{
			Actor: actor, EnergyType: "demand", Slot: flexoffer.Time(slot), KWh: kwh,
		}}})
		if err != nil {
			return false
		}
		var buf writableBuffer
		if err := writeFrame(&buf, &env); err != nil {
			return false
		}
		got, err := readFrame(&buf)
		if err != nil {
			return false
		}
		var batch MeasurementBatch
		if err := got.Decode(MsgMeasurementBatch, &batch); err != nil || len(batch.Reports) != 1 {
			return false
		}
		body := batch.Reports[0]
		return got.From == "a" && got.To == "b" && body.Actor == actor && body.EnergyType == "demand" &&
			body.Slot == flexoffer.Time(slot) && math.Float64bits(body.KWh) == math.Float64bits(kwh)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFrameSizeLimit(t *testing.T) {
	// A body beyond maxFrame must be rejected on write, not sent.
	huge := Envelope{Type: MsgPing, Body: make([]byte, maxFrame+1)}
	var buf writableBuffer
	if err := writeFrame(&buf, &huge); err == nil {
		t.Error("oversized frame written")
	}
	// A forged oversized header must be rejected on read.
	var hdr writableBuffer
	hdr.data = []byte{0xff, 0xff, 0xff, 0xff}
	if _, err := readFrame(&hdr); err == nil {
		t.Error("oversized frame header accepted")
	}
}

func TestErrorEnvelopeKeepsCorrelation(t *testing.T) {
	in := Envelope{Type: MsgPing, From: "p1", To: "brp1", Seq: 42}
	out := ErrorEnvelope(&in, "brp1", "boom")
	if out.Seq != 42 || out.To != "p1" || out.Type != MsgError {
		t.Errorf("error envelope = %+v", out)
	}
	var body ErrorBody
	if err := out.Decode(MsgError, &body); err != nil || body.Message != "boom" {
		t.Errorf("body = %+v, %v", body, err)
	}
}

// writableBuffer is a minimal io.ReadWriter over a byte slice.
type writableBuffer struct{ data []byte }

func (b *writableBuffer) Write(p []byte) (int, error) {
	b.data = append(b.data, p...)
	return len(p), nil
}

func (b *writableBuffer) Read(p []byte) (int, error) {
	if len(b.data) == 0 {
		return 0, fmt.Errorf("EOF")
	}
	n := copy(p, b.data)
	b.data = b.data[n:]
	return n, nil
}
