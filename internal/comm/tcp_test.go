package comm

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mirabel/internal/flexoffer"
	"mirabel/internal/wire"
)

// slowPongServer serves a handler that sleeps d (or until server
// shutdown) before answering with a pong.
func slowPongServer(t *testing.T, d time.Duration) *TCPServer {
	t.Helper()
	srv, err := ListenTCP("127.0.0.1:0", func(ctx context.Context, env Envelope) (*Envelope, error) {
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		reply, err := NewEnvelope(MsgPong, "srv", env.From, nil)
		return &reply, err
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestTCPConcurrentRequestsOverlap is the transport's core promise: K
// parallel Requests over ONE client against a slow handler complete in
// about one slow-peer latency, not K of them — the seed's client mutex
// serialized them into K×delay.
func TestTCPConcurrentRequestsOverlap(t *testing.T) {
	const k = 16
	const delay = 150 * time.Millisecond
	srv := slowPongServer(t, delay)

	client := NewTCPClient("p1")
	defer client.Close()
	client.SetRoute("srv", srv.Addr())

	var wg sync.WaitGroup
	errs := make([]error, k)
	t0 := time.Now()
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			env, _ := NewEnvelope(MsgPing, "p1", "srv", nil)
			_, errs[i] = client.Request(context.Background(), "srv", env)
		}(i)
	}
	wg.Wait()
	wall := time.Since(t0)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	// Serialized this takes k×delay = 2.4 s; overlapped it is one wave
	// of ~delay. Allow generous CI slack while still proving overlap.
	if wall > 8*delay {
		t.Errorf("16 concurrent requests took %v, want ≈%v (serialized would be %v)", wall, delay, k*delay)
	}
	st := client.Stats()
	if st.Dials != 1 {
		t.Errorf("dials = %d, want 1: one connection per peer", st.Dials)
	}
	if st.Requests != k {
		t.Errorf("requests = %d, want %d", st.Requests, k)
	}
	if st.InFlight != 0 {
		t.Errorf("in-flight after completion = %d", st.InFlight)
	}
}

// TestTCPPipeliningOnSingleConnection: with one connection per peer,
// overlap comes from Seq-correlated pipelining alone (multiple requests
// in flight on one conn, demuxed by the reader goroutine) plus the
// server's concurrent per-connection dispatch.
func TestTCPPipeliningOnSingleConnection(t *testing.T) {
	const k = 8
	const delay = 100 * time.Millisecond
	srv := slowPongServer(t, delay)

	client := NewTCPClient("p1")
	defer client.Close()
	client.SetRoute("srv", srv.Addr())

	var wg sync.WaitGroup
	var failed atomic.Int32
	t0 := time.Now()
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			env, _ := NewEnvelope(MsgPing, "p1", "srv", nil)
			if _, err := client.Request(context.Background(), "srv", env); err != nil {
				failed.Add(1)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0)
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d of %d pipelined requests failed", n, k)
	}
	if wall > 4*delay {
		t.Errorf("%d pipelined requests took %v, want ≈%v", k, wall, delay)
	}
	if st := client.Stats(); st.Dials != 1 {
		t.Errorf("dials = %d, want exactly 1", st.Dials)
	}
}

// TestTCPSendDoesNotBlockOnSlowHandler: fire-and-forget must return once
// the frame is written, not after the handler ran.
func TestTCPSendDoesNotBlockOnSlowHandler(t *testing.T) {
	const delay = 300 * time.Millisecond
	srv := slowPongServer(t, delay)
	client := NewTCPClient("p1")
	defer client.Close()
	client.SetRoute("srv", srv.Addr())

	env, _ := NewEnvelope(MsgMeasurementBatch, "p1", "srv", MeasurementBatch{Reports: []MeasurementReport{{Actor: "p1", Slot: 1, KWh: 2}}})
	t0 := time.Now()
	if err := client.Send(context.Background(), "srv", env); err != nil {
		t.Fatal(err)
	}
	if wall := time.Since(t0); wall > delay/2 {
		t.Errorf("Send blocked %v behind a %v handler", wall, delay)
	}
}

// TestTCPCancelMidFlightKeepsConnectionUsable cancels a request while
// its reply is pending, then reuses the same client: the cancellation
// must surface promptly, the late reply must be dropped by the demux
// loop, and the connection must stay healthy (no redial).
func TestTCPCancelMidFlightKeepsConnectionUsable(t *testing.T) {
	var slow atomic.Bool
	slow.Store(true)
	srv, err := ListenTCP("127.0.0.1:0", func(ctx context.Context, env Envelope) (*Envelope, error) {
		if slow.Load() {
			select {
			case <-time.After(500 * time.Millisecond):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		reply, err := NewEnvelope(MsgPong, "srv", env.From, nil)
		return &reply, err
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client := NewTCPClient("p1")
	defer client.Close()
	client.SetRoute("srv", srv.Addr())

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	env, _ := NewEnvelope(MsgPing, "p1", "srv", nil)
	t0 := time.Now()
	_, err = client.Request(ctx, "srv", env)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if wall := time.Since(t0); wall > 300*time.Millisecond {
		t.Errorf("cancellation surfaced after %v, want ≈50ms", wall)
	}

	// The same connection must serve the next request — the
	// cancel must not have poisoned or torn it down — even while the
	// abandoned slow reply is still in flight.
	slow.Store(false)
	if _, err := client.Request(context.Background(), "srv", env); err != nil {
		t.Fatalf("request after cancel: %v", err)
	}
	if st := client.Stats(); st.Dials != 1 {
		t.Errorf("dials = %d, want 1 (cancel must not drop the conn)", st.Dials)
	}
}

// rawFrameServer speaks the wire protocol by hand for fault injection:
// fn receives each inbound envelope and the raw connection.
func rawFrameServer(t *testing.T, fn func(conn net.Conn, env Envelope)) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				for {
					env, err := readFrame(conn)
					if err != nil {
						return
					}
					fn(conn, env)
				}
			}(conn)
		}
	}()
	return ln
}

// TestTCPSeqMismatchDoesNotMiscorrelate injects replies with a wrong
// Seq: the client must drop them rather than hand them to the waiting
// request, and must complete once the correctly-tagged reply arrives.
func TestTCPSeqMismatchDoesNotMiscorrelate(t *testing.T) {
	ln := rawFrameServer(t, func(conn net.Conn, env Envelope) {
		// A forged reply under a foreign Seq, then the real one.
		bogus, _ := NewEnvelope(MsgError, "srv", env.From, ErrorBody{Message: "forged"})
		bogus.Seq = env.Seq + 1000
		_ = writeFrame(conn, &bogus)
		good, _ := NewEnvelope(MsgPong, "srv", env.From, nil)
		good.Seq = env.Seq
		_ = writeFrame(conn, &good)
	})

	client := NewTCPClient("p1")
	defer client.Close()
	client.SetRoute("srv", ln.Addr().String())
	env, _ := NewEnvelope(MsgPing, "p1", "srv", nil)
	reply, err := client.Request(context.Background(), "srv", env)
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	if reply.Type != MsgPong {
		t.Errorf("reply = %+v, want the correctly-correlated pong", reply)
	}

	// A reply that ONLY ever carries the wrong Seq must never complete
	// the request: it times out instead of mis-correlating.
	lnBad := rawFrameServer(t, func(conn net.Conn, env Envelope) {
		bogus, _ := NewEnvelope(MsgPong, "srv", env.From, nil)
		bogus.Seq = env.Seq + 7
		_ = writeFrame(conn, &bogus)
	})
	client.SetRoute("bad", lnBad.Addr().String())
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, err := client.Request(ctx, "bad", env); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want DeadlineExceeded (wrong-Seq reply must be dropped)", err)
	}
}

// TestTCPStalePoolRetries kills the connection server-side after the
// request frame is read: the peer's connection fails mid-flight and the
// Retry wrapper — the single retry code path, now that the client never
// re-attempts on its own — must heal it with one extra dial.
func TestTCPStalePoolRetries(t *testing.T) {
	var kills atomic.Int32
	kills.Store(1) // kill exactly the first request
	ln := rawFrameServer(t, func(conn net.Conn, env Envelope) {
		if kills.Add(-1) >= 0 {
			conn.Close() // mid-flight failure: frame consumed, no reply
			return
		}
		reply, _ := NewEnvelope(MsgPong, "srv", env.From, nil)
		reply.Seq = env.Seq
		_ = writeFrame(conn, &reply)
	})

	client := NewTCPClient("p1")
	defer client.Close()
	client.SetRoute("srv", ln.Addr().String())
	rt := NewRetry(client, RetryConfig{})
	env, _ := NewEnvelope(MsgPing, "p1", "srv", nil)
	if _, err := rt.Request(context.Background(), "srv", env); err != nil {
		t.Fatalf("request: %v", err)
	}
	if rs := rt.Stats(); rs.Retries == 0 {
		t.Errorf("retry stats = %+v, want a recorded retry", rs)
	}
	if st := client.Stats(); st.Dials != 2 {
		t.Errorf("dials = %d, want 2 (original + retry redial)", st.Dials)
	}

	// A bare client must surface the failure instead of retrying: one
	// dial per call, no hidden second attempt.
	kills.Store(1)
	bare := NewTCPClient("p2")
	defer bare.Close()
	bare.SetRoute("srv", ln.Addr().String())
	if _, err := bare.Request(context.Background(), "srv", env); err == nil {
		t.Fatal("bare client request healed; want classified failure with no internal retry")
	}
	if st := bare.Stats(); st.Dials != 1 {
		t.Errorf("bare dials = %d, want 1", st.Dials)
	}
}

// gateDials makes every dial wait for release (or its ctx) and then
// fail with failWith if that is non-nil; it counts dial attempts.
func gateDials(t *testing.T, release <-chan struct{}, failWith error) *atomic.Int32 {
	t.Helper()
	var attempts atomic.Int32
	real := dialTCP
	dialTCP = func(ctx context.Context, network, addr string) (net.Conn, error) {
		attempts.Add(1)
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if failWith != nil {
			return nil, failWith
		}
		return real(ctx, network, addr)
	}
	t.Cleanup(func() { dialTCP = real })
	return &attempts
}

// TestTCPFirstRequestsShareOneDial: goroutines racing the first request
// on a fresh client wait for one dial and all ride its connection.
func TestTCPFirstRequestsShareOneDial(t *testing.T) {
	const k = 16
	srv := slowPongServer(t, 0)
	release := make(chan struct{})
	attempts := gateDials(t, release, nil)
	client := NewTCPClient("p1")
	defer client.Close()
	client.SetRoute("srv", srv.Addr())

	var wg sync.WaitGroup
	errs := make([]error, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			env, _ := NewEnvelope(MsgPing, "p1", "srv", nil)
			_, errs[i] = client.Request(context.Background(), "srv", env)
		}(i)
	}
	time.Sleep(20 * time.Millisecond) // let every goroutine reach the dial
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if n := attempts.Load(); n != 1 {
		t.Errorf("%d dial attempts, want 1", n)
	}
	if st := client.Stats(); st.Dials != 1 || st.Reuses != k-1 {
		t.Errorf("stats = %+v, want 1 dial and %d reuses", st, k-1)
	}
}

// TestTCPDialWaiterHonoursContext: a caller waiting for another
// caller's slow dial returns with its own ctx.Err() as soon as that ctx
// ends, and the dial it waited for still completes for its owner.
func TestTCPDialWaiterHonoursContext(t *testing.T) {
	srv := slowPongServer(t, 0)
	release := make(chan struct{})
	attempts := gateDials(t, release, nil)
	client := NewTCPClient("p1")
	defer client.Close()
	client.SetRoute("srv", srv.Addr())
	env, _ := NewEnvelope(MsgPing, "p1", "srv", nil)

	first := make(chan error, 1)
	go func() {
		_, err := client.Request(context.Background(), "srv", env)
		first <- err
	}()
	for attempts.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, err := client.Request(ctx, "srv", env)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waiter err = %v, want DeadlineExceeded", err)
	}
	if wall := time.Since(t0); wall > 500*time.Millisecond {
		t.Errorf("waiter returned after %v, want ≈50ms", wall)
	}
	close(release)
	if err := <-first; err != nil {
		t.Fatalf("dialing request: %v", err)
	}
	if n := attempts.Load(); n != 1 {
		t.Errorf("%d dial attempts, want 1: the waiter must not dial", n)
	}
}

// TestTCPFailedDialDoesNotPoison: callers queued behind a failing dial
// each get an attempt of their own instead of hanging or inheriting the
// error, and once dials succeed again the peer serves as usual.
func TestTCPFailedDialDoesNotPoison(t *testing.T) {
	const k = 8
	srv := slowPongServer(t, 0)
	release := make(chan struct{})
	refused := errors.New("refused")
	attempts := gateDials(t, release, refused)
	client := NewTCPClient("p1")
	defer client.Close()
	client.SetRoute("srv", srv.Addr())
	env, _ := NewEnvelope(MsgPing, "p1", "srv", nil)

	var wg sync.WaitGroup
	errs := make([]error, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_, errs[i] = client.Request(ctx, "srv", env)
		}(i)
	}
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, refused) || !errors.Is(err, ErrNotSent) {
			t.Errorf("request %d: err = %v, want the refused dial, classified not-sent", i, err)
		}
	}
	if n := attempts.Load(); n != k {
		t.Errorf("%d dial attempts for %d failing callers, want one each", n, k)
	}

	dialTCP = (&net.Dialer{}).DialContext
	for i := 0; i < 3; i++ {
		if _, err := client.Request(context.Background(), "srv", env); err != nil {
			t.Fatalf("request after the failed dials: %v", err)
		}
	}
	if st := client.Stats(); st.Dials != 1 || st.InFlight != 0 {
		t.Errorf("stats = %+v, want 1 dial and nothing in flight", st)
	}
}

// TestTCPManyDestinationsFanOut overlaps requests across many servers
// through one client: wall time tracks the slowest peer, not the sum.
func TestTCPManyDestinationsFanOut(t *testing.T) {
	const peers = 8
	const delay = 100 * time.Millisecond
	client := NewTCPClient("brp")
	defer client.Close()
	for i := 0; i < peers; i++ {
		srv := slowPongServer(t, delay)
		client.SetRoute(fmt.Sprintf("p%d", i), srv.Addr())
	}
	var wg sync.WaitGroup
	errs := make([]error, peers)
	t0 := time.Now()
	for i := 0; i < peers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			to := fmt.Sprintf("p%d", i)
			env, _ := NewEnvelope(MsgPing, "brp", to, nil)
			_, errs[i] = client.Request(context.Background(), to, env)
		}(i)
	}
	wg.Wait()
	wall := time.Since(t0)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("peer %d: %v", i, err)
		}
	}
	if wall > 4*delay {
		t.Errorf("fan-out to %d peers took %v, want ≈%v (sum would be %v)", peers, wall, delay, peers*delay)
	}
}

// gatedServer serves a handler that reports its entry on entered and
// then blocks until release is closed — deliberately deaf to ctx, so a
// test decides when handlers finish. inFlight/peak count the handlers
// running at once, done the ones that returned.
type gatedServer struct {
	*TCPServer
	entered        chan struct{}
	release        chan struct{}
	inFlight, peak atomic.Int32
	done           atomic.Int32
}

func newGatedServer(t *testing.T) *gatedServer {
	t.Helper()
	g := &gatedServer{entered: make(chan struct{}, 64), release: make(chan struct{})}
	srv, err := ListenTCP("127.0.0.1:0", func(ctx context.Context, env Envelope) (*Envelope, error) {
		n := g.inFlight.Add(1)
		for p := g.peak.Load(); n > p && !g.peak.CompareAndSwap(p, n); p = g.peak.Load() {
		}
		g.entered <- struct{}{}
		<-g.release
		g.inFlight.Add(-1)
		g.done.Add(1)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	g.TCPServer = srv
	return g
}

// pipeline starts k Requests over client and returns once every one of
// them is registered in flight; wait collects them.
func pipeline(t *testing.T, client *TCPClient, k int) (wait func()) {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			env, _ := NewEnvelope(MsgPing, "p1", "srv", nil)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if _, err := client.Request(ctx, "srv", env); err != nil {
				t.Errorf("request: %v", err)
			}
		}()
	}
	for deadline := time.Now().Add(5 * time.Second); client.Stats().InFlight < int64(k); {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests in flight", client.Stats().InFlight, k)
		}
		time.Sleep(time.Millisecond)
	}
	return wg.Wait
}

// TestTCPWorkerReuseKeepsConcurrencyBound: the per-connection workers
// honour DefaultServerConcurrency exactly as the per-frame goroutines
// did — twice the bound of requests pipelined on one connection run
// bound at a time, never more, and all complete.
func TestTCPWorkerReuseKeepsConcurrencyBound(t *testing.T) {
	const bound = DefaultServerConcurrency
	const k = 2 * bound
	srv := newGatedServer(t)
	defer srv.Close()
	client := NewTCPClient("p1")
	defer client.Close()
	client.SetRoute("srv", srv.Addr())

	wait := pipeline(t, client, k)
	for i := 0; i < bound; i++ {
		<-srv.entered
	}
	// All k frames are written, bound handlers hold every worker: one
	// more entry now would be a broken bound. Let the read loop reach its
	// blocking hand-off before looking.
	time.Sleep(50 * time.Millisecond)
	if n := srv.inFlight.Load(); n != bound {
		t.Errorf("%d handlers in flight with %d requests pending, want %d", n, k, bound)
	}
	close(srv.release)
	wait()
	if got := srv.done.Load(); got != k {
		t.Errorf("%d of %d requests handled", got, k)
	}
	if peak := srv.peak.Load(); peak != bound {
		t.Errorf("peak concurrency %d, want exactly %d", peak, bound)
	}
	if st := client.Stats(); st.Dials != 1 {
		t.Errorf("dials = %d, want 1: the bound is per connection", st.Dials)
	}
}

// TestTCPWorkersExitWithConnection: parked workers belong to their
// connection — once the client hangs up, the serve goroutine and every
// worker it started are gone.
func TestTCPWorkersExitWithConnection(t *testing.T) {
	srv := newGatedServer(t)
	defer srv.Close()
	before := runtime.NumGoroutine()

	client := NewTCPClient("p1")
	client.SetRoute("srv", srv.Addr())
	wait := pipeline(t, client, 8)
	close(srv.release)
	wait() // 8 workers were started and are now parked
	client.Close()

	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before the dial, %d after the hang-up:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTCPServerCloseWaitsForWorkers: Close returns only after the
// handlers in flight have.
func TestTCPServerCloseWaitsForWorkers(t *testing.T) {
	const k = 3
	srv := newGatedServer(t)
	client := NewTCPClient("p1")
	defer client.Close()
	client.SetRoute("srv", srv.Addr())
	for i := 0; i < k; i++ {
		env, _ := NewEnvelope(MsgPing, "p1", "srv", nil)
		if err := client.Send(context.Background(), "srv", env); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < k; i++ {
		<-srv.entered
	}
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned with handlers still running")
	case <-time.After(50 * time.Millisecond):
	}
	close(srv.release)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the handlers finished")
	}
	if got := srv.done.Load(); got != k {
		t.Errorf("Close returned with %d of %d handlers finished", got, k)
	}
}

// TestTCPBodyOutlivesReadScratch pins the frame-buffer ownership rule:
// handlers run concurrently with the connection's read loop (up to
// perConn wide), which reuses one payload scratch, so a decoded
// Envelope.Body must own its bytes. Requests of very different sizes
// are pipelined down ONE connection; each handler dawdles before it
// decodes, giving the read loop every chance to overwrite a body that
// aliased the scratch (which -race then reports), and the reply proves
// the body still read as sent. The replies come back through the
// client's demux loop, which reuses a scratch the same way.
func TestTCPBodyOutlivesReadScratch(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", func(ctx context.Context, env Envelope) (*Envelope, error) {
		time.Sleep(time.Millisecond)
		var batch MeasurementBatch
		if err := env.Decode(MsgMeasurementBatch, &batch); err != nil {
			return nil, err
		}
		for i, r := range batch.Reports {
			if r.Actor != batch.Reports[0].Actor || int(r.Slot) != i {
				return nil, fmt.Errorf("report %d of %s's batch reads %+v", i, batch.Reports[0].Actor, r)
			}
		}
		reply, err := NewEnvelope(MsgMeasurementBatch, "srv", env.From, batch)
		return &reply, err
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := NewTCPClient("p1")
	defer client.Close()
	client.SetRoute("srv", srv.Addr())

	const requests = 96
	var wg sync.WaitGroup
	for k := 0; k < requests; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			actor := fmt.Sprintf("meter-%03d", k)
			reports := make([]MeasurementReport, 1+(k*37)%200) // 1 … 200 facts: ~30 B to ~5 KB frames
			for i := range reports {
				reports[i] = MeasurementReport{Actor: actor, EnergyType: "demand", Slot: flexoffer.Time(i), KWh: float64(k*1000 + i)}
			}
			env, err := NewEnvelope(MsgMeasurementBatch, "p1", "srv", MeasurementBatch{Reports: reports})
			if err != nil {
				t.Error(err)
				return
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			reply, err := client.Request(ctx, "srv", env)
			if err != nil {
				t.Errorf("request %d: %v", k, err)
				return
			}
			var echo MeasurementBatch
			if err := reply.Decode(MsgMeasurementBatch, &echo); err != nil {
				t.Errorf("reply %d: %v", k, err)
				return
			}
			if len(echo.Reports) != len(reports) {
				t.Errorf("reply %d echoes %d reports, want %d", k, len(echo.Reports), len(reports))
				return
			}
			for i, r := range echo.Reports {
				if r != reports[i] {
					t.Errorf("reply %d report %d = %+v, want %+v", k, i, r, reports[i])
					return
				}
			}
		}(k)
	}
	wg.Wait()
	if got := client.Stats().Dials; got != 1 {
		t.Errorf("dials = %d, want 1 (the requests must share one connection)", got)
	}
}

// TestFrameReaderDropsOversizedScratch: one huge frame must not leave a
// connection holding a huge read buffer for the rest of its life.
func TestFrameReaderDropsOversizedScratch(t *testing.T) {
	var stream writableBuffer
	small := Envelope{Type: MsgError, From: "a", To: "b", Body: make([]byte, 100)}
	huge := Envelope{Type: MsgError, From: "a", To: "b", Body: make([]byte, wire.MaxPooledBuf+1)}
	for _, env := range []*Envelope{&small, &huge, &small} {
		if err := writeFrame(&stream, env); err != nil {
			t.Fatal(err)
		}
	}
	fr := &frameReader{r: &stream}
	for i, wantBody := range []int{100, wire.MaxPooledBuf + 1, 100} {
		env, err := fr.next()
		if err != nil || len(env.Body) != wantBody {
			t.Fatalf("frame %d: %d body bytes, %v", i, len(env.Body), err)
		}
		if cap(fr.scratch) > wire.MaxPooledBuf {
			t.Fatalf("after frame %d the reader keeps a %d-byte scratch (bound %d)", i, cap(fr.scratch), wire.MaxPooledBuf)
		}
	}
}
