package comm

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mirabel/internal/flexoffer"
)

// echoNode registers a minimal BRP-like endpoint on the bus: accepts
// offers, answers pings, counts notifications.
func echoNode(bus *Bus, name string) *atomic.Int32 {
	var notified atomic.Int32
	mux := NewMux()
	mux.Handle(MsgFlexOfferSubmit, func(ctx context.Context, env Envelope) (*Envelope, error) {
		var body FlexOfferSubmit
		if err := env.Decode(MsgFlexOfferSubmit, &body); err != nil {
			return nil, err
		}
		reply, err := NewEnvelope(MsgFlexOfferDecision, name, env.From, FlexOfferDecision{
			OfferID: body.Offer.ID, Accept: true, PremiumEUR: 0.02,
		})
		return &reply, err
	})
	mux.Handle(MsgPing, func(ctx context.Context, env Envelope) (*Envelope, error) {
		reply, err := NewEnvelope(MsgPong, name, env.From, nil)
		return &reply, err
	})
	mux.Handle(MsgScheduleNotify, func(ctx context.Context, env Envelope) (*Envelope, error) {
		notified.Add(1)
		return nil, nil
	})
	mux.Handle(MsgMeasurementBatch, func(ctx context.Context, env Envelope) (*Envelope, error) {
		notified.Add(1)
		return nil, nil
	})
	bus.Register(name, mux.Serve)
	return &notified
}

func TestClientTypedRoundtrips(t *testing.T) {
	ctx := context.Background()
	bus := NewBus()
	notified := echoNode(bus, "brp1")
	c := NewClient("p1", bus)

	offer := &flexoffer.FlexOffer{ID: 9, EarliestStart: 4, LatestStart: 8,
		Profile: []flexoffer.Slice{{EnergyMin: 0, EnergyMax: 2}}}
	d, err := c.SubmitOffer(ctx, "brp1", offer)
	if err != nil || !d.Accept || d.OfferID != 9 {
		t.Fatalf("SubmitOffer = %+v, %v", d, err)
	}
	if err := c.Ping(ctx, "brp1"); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	if err := c.NotifySchedules(ctx, "brp1", []*flexoffer.Schedule{{OfferID: 9, Start: 4, Energy: []float64{1}}}); err != nil {
		t.Fatalf("NotifySchedules: %v", err)
	}
	if err := c.ReportMeasurementsAcked(ctx, "brp1", []MeasurementReport{{Actor: "p1", Slot: 1, KWh: 0.5}}); err != nil {
		t.Fatalf("ReportMeasurementsAcked: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for notified.Load() != 2 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if notified.Load() != 2 {
		t.Errorf("fire-and-forget deliveries = %d, want 2", notified.Load())
	}
}

func TestClientUnreachableThroughBothTransports(t *testing.T) {
	ctx := context.Background()
	// Bus: unregistered destination.
	busClient := NewClient("p1", NewBus())
	if err := busClient.Ping(ctx, "ghost"); !errors.Is(err, ErrUnreachable) {
		t.Errorf("bus err = %v, want ErrUnreachable", err)
	}
	// TCP: no route configured.
	tcp := NewTCPClient("p1")
	defer tcp.Close()
	tcpClient := NewClient("p1", tcp)
	if err := tcpClient.Ping(ctx, "ghost"); !errors.Is(err, ErrUnreachable) {
		t.Errorf("tcp err = %v, want ErrUnreachable", err)
	}
}

func TestClientPingRejectsWrongReply(t *testing.T) {
	bus := NewBus()
	bus.Register("weird", func(ctx context.Context, env Envelope) (*Envelope, error) {
		reply, err := NewEnvelope(MsgFlexOfferDecision, "weird", env.From, FlexOfferDecision{})
		return &reply, err
	})
	c := NewClient("p1", bus)
	if err := c.Ping(context.Background(), "weird"); err == nil {
		t.Error("wrong reply type accepted")
	}
}

func TestMuxDispatchAndFallback(t *testing.T) {
	ctx := context.Background()
	mux := NewMux()
	mux.Handle(MsgPing, func(ctx context.Context, env Envelope) (*Envelope, error) {
		reply, err := NewEnvelope(MsgPong, "m", env.From, nil)
		return &reply, err
	})
	if reply, err := mux.Serve(ctx, Envelope{Type: MsgPing, From: "x"}); err != nil || reply.Type != MsgPong {
		t.Fatalf("dispatch = %+v, %v", reply, err)
	}
	if _, err := mux.Serve(ctx, Envelope{Type: MsgError}); !errors.Is(err, ErrNoHandler) {
		t.Errorf("unregistered type err = %v, want ErrNoHandler", err)
	}
}

func TestRecoverMiddleware(t *testing.T) {
	h := Chain(func(context.Context, Envelope) (*Envelope, error) {
		panic("boom")
	}, Recover())
	_, err := h(context.Background(), Envelope{Type: MsgPing, From: "p1"})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("panic not converted: %v", err)
	}
}

func TestLoggingMiddleware(t *testing.T) {
	var lines []string
	h := Chain(func(context.Context, Envelope) (*Envelope, error) {
		return nil, fmt.Errorf("nope")
	}, Logging(func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}))
	_, _ = h(context.Background(), Envelope{Type: MsgPing, From: "p1"})
	if len(lines) != 1 || !strings.Contains(lines[0], "ping") || !strings.Contains(lines[0], "nope") {
		t.Errorf("log lines = %q", lines)
	}
}

func TestMetricsMiddleware(t *testing.T) {
	var m Metrics
	h := Chain(func(ctx context.Context, env Envelope) (*Envelope, error) {
		if env.Type == MsgError {
			return nil, fmt.Errorf("bad")
		}
		return &Envelope{Type: MsgPong}, nil
	}, m.Collect())
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		_, _ = h(ctx, Envelope{Type: MsgPing})
	}
	_, _ = h(ctx, Envelope{Type: MsgError})
	if handled, errs := metricTotals(&m); handled != 4 || errs != 1 {
		t.Errorf("handled = %d errors = %d", handled, errs)
	}
	snap := m.Snapshot()
	if snap[MsgPing].Handled != 3 || snap[MsgPing].Errors != 0 {
		t.Errorf("ping metrics = %+v", snap[MsgPing])
	}
	if snap[MsgError].Errors != 1 {
		t.Errorf("error metrics = %+v", snap[MsgError])
	}
	if snap[MsgPing].MaxLatency < 0 || snap[MsgPing].TotalTime < snap[MsgPing].MaxLatency {
		t.Errorf("latency accounting inconsistent: %+v", snap[MsgPing])
	}
	if p := snap[MsgPing]; p.P50 > p.P99 || p.P99 > p.MaxLatency {
		t.Errorf("percentiles out of order: %+v", p)
	}
}

// metricTotals sums a Metrics snapshot over message types.
func metricTotals(m *Metrics) (handled, errs uint64) {
	for _, tm := range m.Snapshot() {
		handled += tm.Handled
		errs += tm.Errors
	}
	return handled, errs
}

func TestChainOrder(t *testing.T) {
	var order []string
	tag := func(name string) Middleware {
		return func(next Handler) Handler {
			return func(ctx context.Context, env Envelope) (*Envelope, error) {
				order = append(order, name)
				return next(ctx, env)
			}
		}
	}
	h := Chain(func(context.Context, Envelope) (*Envelope, error) {
		order = append(order, "handler")
		return nil, nil
	}, tag("outer"), nil, tag("inner"))
	_, _ = h(context.Background(), Envelope{})
	if strings.Join(order, ",") != "outer,inner,handler" {
		t.Errorf("order = %v", order)
	}
}

// waitGoroutines polls until the goroutine count drops back to at most
// base, failing the test if it never does.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d now vs %d before", runtime.NumGoroutine(), base)
}

func TestBusRequestCancelNoLeak(t *testing.T) {
	bus := NewBus()
	release := make(chan struct{})
	bus.Register("slow", func(ctx context.Context, _ Envelope) (*Envelope, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-release:
			return nil, nil
		}
	})
	base := runtime.NumGoroutine()
	env, _ := NewEnvelope(MsgPing, "p", "slow", nil)
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := bus.Request(ctx, "slow", env)
			done <- err
		}()
		time.Sleep(time.Millisecond)
		cancel()
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	}
	close(release)
	waitGoroutines(t, base)
}

func TestBusRequestTimeoutNoLeak(t *testing.T) {
	// A handler that honors ctx: a timed-out request must not leave its
	// worker goroutine behind.
	bus := NewBus()
	bus.Register("slow", func(ctx context.Context, _ Envelope) (*Envelope, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	base := runtime.NumGoroutine()
	env, _ := NewEnvelope(MsgPing, "p", "slow", nil)
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		if _, err := bus.Request(ctx, "slow", env); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want DeadlineExceeded", err)
		}
		cancel()
	}
	waitGoroutines(t, base)
}

func TestTCPRequestCancelMidFlight(t *testing.T) {
	// The server handler stalls until server shutdown; the client's
	// cancellation must unblock the request immediately.
	srv, err := ListenTCP("127.0.0.1:0", func(ctx context.Context, _ Envelope) (*Envelope, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := NewTCPClient("p1")
	defer client.Close()
	client.SetRoute("srv", srv.Addr())

	env, _ := NewEnvelope(MsgPing, "p1", "srv", nil)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	t0 := time.Now()
	_, err = client.Request(ctx, "srv", env)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(t0); elapsed > 2*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
}

func TestTCPRequestDeadline(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", func(ctx context.Context, _ Envelope) (*Envelope, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := NewTCPClient("p1")
	defer client.Close()
	client.SetRoute("srv", srv.Addr())

	env, _ := NewEnvelope(MsgPing, "p1", "srv", nil)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := client.Request(ctx, "srv", env); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

func TestTCPRequestPreCanceled(t *testing.T) {
	client := NewTCPClient("p1")
	defer client.Close()
	client.SetRoute("srv", "127.0.0.1:1") // never dialed
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	env, _ := NewEnvelope(MsgPing, "p1", "srv", nil)
	if _, err := client.Request(ctx, "srv", env); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestMetricsCountRecoveredPanics(t *testing.T) {
	// Collect outside Recover: a converted panic must count as an
	// error (the ordering core.Node uses).
	var m Metrics
	h := Chain(func(context.Context, Envelope) (*Envelope, error) {
		panic("boom")
	}, m.Collect(), Recover())
	if _, err := h(context.Background(), Envelope{Type: MsgPing}); err == nil {
		t.Fatal("panic not converted to error")
	}
	if handled, errs := metricTotals(&m); handled != 1 || errs != 1 {
		t.Errorf("handled = %d errors = %d, want 1/1", handled, errs)
	}
}

func TestBusRequestPreCanceled(t *testing.T) {
	// Same contract as TCP: a request on an already-canceled context
	// must not run the handler at all.
	bus := NewBus()
	var ran atomic.Int32
	bus.Register("brp1", func(ctx context.Context, env Envelope) (*Envelope, error) {
		ran.Add(1)
		reply, err := NewEnvelope(MsgPong, "brp1", env.From, nil)
		return &reply, err
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	env, _ := NewEnvelope(MsgPing, "p1", "brp1", nil)
	if _, err := bus.Request(ctx, "brp1", env); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Errorf("handler ran %d times on canceled context", ran.Load())
	}
}
