package comm

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mirabel/internal/wire"
)

// maxFrame bounds a single message (16 MiB) — a macro flex-offer batch
// fits comfortably; anything larger indicates a protocol error.
const maxFrame = 16 << 20

// writeFrame writes one frame: a 4-byte big-endian payload length, then
// the envelope's binary form (codec.go). Header and payload are encoded
// into a pooled buffer and flushed as a single Write, so a frame costs
// one syscall and no per-frame payload allocation.
func writeFrame(w io.Writer, env *Envelope) error {
	buf := wire.GetBuf()
	defer wire.PutBuf(buf)
	raw, err := appendEnvelope(append(*buf, 0, 0, 0, 0), env)
	*buf = raw
	if err != nil {
		return err
	}
	n := len(raw) - 4
	if n > maxFrame {
		return fmt.Errorf("comm: frame of %d bytes exceeds limit", n)
	}
	binary.BigEndian.PutUint32(raw[:4], uint32(n))
	_, err = w.Write(raw)
	return err
}

// frameReader reads a connection's frames. The payload scratch is reused
// across frames — safe because a decoded envelope owns all its memory
// (peerNames.decode copies the body out; handlers run concurrently with
// the next read) — and is dropped once it has grown past wire.MaxPooledBuf,
// so one huge frame does not pin megabytes per connection for good. The
// names of the last frame are kept, so a frame from the same peer to the
// same endpoint copies neither.
type frameReader struct {
	r       io.Reader
	hdr     [4]byte
	scratch []byte
	names   peerNames
}

func newFrameReader(conn io.Reader) *frameReader {
	return &frameReader{r: bufio.NewReader(conn)}
}

func (fr *frameReader) next() (Envelope, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return Envelope{}, err
	}
	n := binary.BigEndian.Uint32(fr.hdr[:])
	if n > maxFrame {
		return Envelope{}, fmt.Errorf("comm: frame of %d bytes exceeds limit", n)
	}
	if uint32(cap(fr.scratch)) < n {
		fr.scratch = make([]byte, n)
	}
	raw := fr.scratch[:n]
	if cap(fr.scratch) > wire.MaxPooledBuf {
		fr.scratch = nil
	}
	if _, err := io.ReadFull(fr.r, raw); err != nil {
		return Envelope{}, err
	}
	return fr.names.decode(raw)
}

// DefaultServerConcurrency bounds how many handlers a TCPServer runs
// concurrently per connection, so a pipelined client is not serialized
// server-side while a runaway peer cannot fork unbounded goroutines.
const DefaultServerConcurrency = 32

// TCPServer serves a node endpoint over TCP. Handlers receive a context
// that is canceled when the server shuts down, so in-flight work stops
// with the listener. Requests arriving on one connection are dispatched
// concurrently (bounded by DefaultServerConcurrency) and replies carry
// the request's Seq, so they may return out of order; clients correlate
// by Seq.
type TCPServer struct {
	ln      net.Listener
	handler Handler
	baseCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	mu      sync.Mutex
	closed  bool
	conns   map[net.Conn]struct{}
}

// ListenTCP starts serving handler on addr (e.g. "127.0.0.1:0"); use
// Addr() for the bound address.
func ListenTCP(addr string, h Handler) (*TCPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("comm: listen %s: %w", addr, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &TCPServer{ln: ln, handler: h, baseCtx: ctx, cancel: cancel, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound address.
func (s *TCPServer) Addr() string { return s.ln.Addr().String() }

// Close cancels in-flight handlers, stops the listener, drops open
// connections and waits for their goroutines.
func (s *TCPServer) Close() error {
	s.cancel()
	s.mu.Lock()
	s.closed = true
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *TCPServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed || errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// serveConn handles one connection: a stream of request frames, each
// handed to one of at most DefaultServerConcurrency handler workers,
// which live as long as the connection does. A frame goes to a parked
// worker if there is one; otherwise a new worker is started while fewer
// than DefaultServerConcurrency exist; otherwise the read loop blocks
// until a worker frees up.
// Reusing workers keeps each goroutine's stack, grown once through the
// handler chain, instead of regrowing a fresh one per frame.
func (s *TCPServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	var hwg sync.WaitGroup
	work := make(chan Envelope) // unbuffered: a send lands only in a parked worker
	defer func() {
		close(work)
		hwg.Wait()
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	frames := newFrameReader(conn)
	var wmu sync.Mutex // one reply frame at a time onto the shared conn
	workers := 0
	for {
		env, err := frames.next()
		if err != nil {
			return // EOF or protocol error: drop the connection
		}
		select {
		case work <- env:
		default:
			if workers < DefaultServerConcurrency {
				workers++
				hwg.Add(1)
				go func() {
					defer hwg.Done()
					for env := range work {
						s.serveFrame(conn, &wmu, env)
					}
				}()
			}
			work <- env
		}
	}
}

// serveFrame runs the handler on one request and writes its reply frame
// (MsgError on handler failure, an empty pong frame for fire-and-forget
// handlers that return nil) under the connection's write lock, tagged
// with the request's Seq.
func (s *TCPServer) serveFrame(conn net.Conn, wmu *sync.Mutex, env Envelope) {
	reply, err := s.handler(s.baseCtx, env)
	switch {
	case err != nil:
		e := ErrorEnvelope(&env, env.To, err.Error())
		reply = &e
	case reply == nil:
		reply = &Envelope{Type: MsgPong, From: env.To, To: env.From, Seq: env.Seq}
	default:
		reply.Seq = env.Seq
	}
	wmu.Lock()
	werr := writeFrame(conn, reply)
	wmu.Unlock()
	if werr != nil {
		conn.Close() // broken pipe: unblock the read loop too
	}
}

// TransportStats counts a TCPClient's connection and request activity.
type TransportStats struct {
	// Dials is the number of connections established.
	Dials uint64
	// Reuses counts operations served over an already-open connection.
	Reuses uint64
	// Requests and Sends count round trips and fire-and-forget frames.
	Requests uint64
	Sends    uint64
	// InFlight is the number of requests currently awaiting a correlated
	// reply (point-in-time gauge).
	InFlight int64
}

// TCPClient is a Transport over TCP: it maps endpoint names to addresses
// and keeps one pipelined connection per destination.
//
// Requests are correlated to replies by Envelope.Seq, so any number of
// requests can be in flight on one connection at once: a demux goroutine
// per connection routes each arriving reply to its waiter, and the
// server runs up to DefaultServerConcurrency handlers per connection.
// The client mutex guards only the peer map and each peer's connection
// slot — never any I/O — so concurrent Requests to one or many
// destinations overlap fully and the wall time of a fan-out wave is
// bounded by its slowest peer, not the sum (the property the scheduling
// cycle's deliver phase depends on).
//
// Send is true fire-and-forget: the frame is written and the server's
// pong is later discarded by the demux loop, so Send never waits for
// the handler to run.
//
// Cancellation: a canceled Request deregisters its waiter and returns
// immediately; the connection stays open and healthy (the late reply
// is demuxed to no one and dropped).
//
// The client itself never re-attempts an operation — it only
// classifies failures: errors from before the frame could have reached
// the peer (failed dial, dead connection caught at registration or
// during the frame write) wrap ErrNotSent, everything later is
// ambiguous. Wrap the client in a Retry transport to heal a stale
// connection with an immediate redial; that is the single retry code
// path of the fabric.
type TCPClient struct {
	from string

	mu    sync.RWMutex // guards peers and every peer's conn and dialing
	peers map[string]*peer

	seq      atomic.Uint64
	dials    atomic.Uint64
	reuses   atomic.Uint64
	requests atomic.Uint64
	sends    atomic.Uint64
	inFlight atomic.Int64
}

// peer is one routed destination: its address and its one connection,
// nil until dialed and again once that connection fails. dialing is
// non-nil while a dial is in progress and is closed when it settles.
type peer struct {
	addr    string
	conn    *tcpConn
	dialing chan struct{}
}

// TCPClientOption customizes a TCPClient.
type TCPClientOption func(*TCPClient)

// WithPoolSize is kept for source compatibility and ignores n: a
// client holds one connection per destination.
//
// Deprecated: every TCPClient pipelines over a single connection.
func WithPoolSize(n int) TCPClientOption { return func(*TCPClient) {} }

// NewTCPClient returns a client identifying itself as from.
func NewTCPClient(from string, opts ...TCPClientOption) *TCPClient {
	c := &TCPClient{from: from, peers: make(map[string]*peer)}
	for _, o := range opts {
		o(c)
	}
	return c
}

// SetRoute maps an endpoint name to a TCP address. Re-routing a name to
// a new address drops the connection to the old one.
func (c *TCPClient) SetRoute(name, addr string) {
	c.mu.Lock()
	p := c.peers[name]
	if p == nil {
		c.peers[name] = &peer{addr: addr}
		c.mu.Unlock()
		return
	}
	var stale *tcpConn
	if p.addr != addr {
		p.addr, stale, p.conn = addr, p.conn, nil
	}
	c.mu.Unlock()
	if stale != nil {
		stale.fail(errRouteReplaced)
	}
}

var errRouteReplaced = errors.New("comm: route replaced")

// Stats returns a point-in-time copy of the client's transport counters.
func (c *TCPClient) Stats() TransportStats {
	return TransportStats{
		Dials:    c.dials.Load(),
		Reuses:   c.reuses.Load(),
		Requests: c.requests.Load(),
		Sends:    c.sends.Load(),
		InFlight: c.inFlight.Load(),
	}
}

// Close drops every open connection; in-flight requests fail. Routes
// stay, so a later operation dials afresh.
func (c *TCPClient) Close() error {
	c.mu.Lock()
	var open []*tcpConn
	for _, p := range c.peers {
		if p.conn != nil {
			open = append(open, p.conn)
			p.conn = nil
		}
	}
	c.mu.Unlock()
	for _, conn := range open {
		conn.fail(errors.New("comm: client closed"))
	}
	return nil
}

// route returns the destination's peer and its open connection, nil
// when none is open.
func (c *TCPClient) route(to string) (*peer, *tcpConn, error) {
	c.mu.RLock()
	p := c.peers[to]
	var conn *tcpConn
	if p != nil {
		conn = p.conn
	}
	c.mu.RUnlock()
	if p == nil {
		return nil, nil, fmt.Errorf("%w: no route to %s", ErrUnreachable, to)
	}
	if conn != nil {
		c.reuses.Add(1)
	}
	return p, conn, nil
}

// dial opens p's connection. Concurrent callers share one dial: the
// first dials, the others wait for it or for their own ctx. A failed
// dial wakes them, and each then dials in turn instead of inheriting
// the error, so one refused dial neither wedges nor poisons the peer.
func (c *TCPClient) dial(ctx context.Context, p *peer) (*tcpConn, error) {
	c.mu.Lock()
	for p.dialing != nil {
		settled := p.dialing
		c.mu.Unlock()
		select {
		case <-settled:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		c.mu.Lock()
	}
	if conn := p.conn; conn != nil {
		c.mu.Unlock()
		c.reuses.Add(1)
		return conn, nil
	}
	addr, settled := p.addr, make(chan struct{})
	p.dialing = settled
	c.mu.Unlock()

	nc, err := dialTCP(ctx, "tcp", addr)
	c.mu.Lock()
	p.dialing = nil
	close(settled)
	if err == nil && p.addr != addr {
		nc.Close() // re-routed while dialing: the address is stale
		err = errRouteReplaced
	}
	if err != nil {
		c.mu.Unlock()
		return nil, fmt.Errorf("comm: dial %s: %w (%w)", addr, err, ErrNotSent)
	}
	conn := &tcpConn{client: c, peer: p, addr: addr, nc: nc, waiters: make(map[uint64]chan Envelope)}
	p.conn = conn
	c.mu.Unlock()
	c.dials.Add(1)
	go conn.readLoop()
	return conn, nil
}

// dialTCP opens a client connection (a variable so tests can slow or
// fail dials).
var dialTCP = (&net.Dialer{}).DialContext

// Send implements Transport: fire-and-forget. The frame is on the wire
// when Send returns; the handler runs asynchronously on the server and
// its pong reply is discarded by the connection's demux loop.
func (c *TCPClient) Send(ctx context.Context, to string, env Envelope) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("comm: send to %s: %w", to, err)
	}
	// Fire-and-forget still bounds its dial and frame write: a stalled
	// peer must not wedge the sender forever just because the caller
	// carried no deadline.
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, DefaultTimeout)
		defer cancel()
	}
	p, conn, err := c.route(to)
	if err != nil {
		return err
	}
	env.Seq = c.seq.Add(1)
	env.From = c.from
	env.To = to
	if conn == nil {
		if conn, err = c.dial(ctx, p); err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return fmt.Errorf("comm: send to %s: %w", to, cerr)
			}
			return err
		}
	}
	if err := conn.write(ctx, &env); err != nil {
		conn.fail(err)
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("comm: send to %s: %w", to, cerr)
		}
		// A failed frame write never delivers a complete frame, so the
		// server drops the connection without running the handler.
		return fmt.Errorf("comm: send to %s: %w (%w)", to, err, ErrNotSent)
	}
	c.sends.Add(1)
	return nil
}

// Request implements Transport.
func (c *TCPClient) Request(ctx context.Context, to string, env Envelope) (Envelope, error) {
	reply, err := c.roundTrip(ctx, to, env)
	if err != nil {
		return Envelope{}, err
	}
	if reply.Type == MsgError {
		var body ErrorBody
		if derr := reply.Decode(MsgError, &body); derr == nil {
			return reply, fmt.Errorf("comm: remote error from %s: %s", to, body.Message)
		}
		return reply, fmt.Errorf("comm: remote error from %s", to)
	}
	return reply, nil
}

// roundTrip sends env and waits for the reply carrying the same Seq.
// The request holds no locks while in flight: it registers a waiter on
// the peer's connection, writes its frame, and blocks on its own reply
// channel, so any number of round trips overlap per connection.
// Cancellation mid-flight deregisters the waiter and returns
// immediately without disturbing the connection.
func (c *TCPClient) roundTrip(ctx context.Context, to string, env Envelope) (Envelope, error) {
	if err := ctx.Err(); err != nil {
		return Envelope{}, fmt.Errorf("comm: request to %s: %w", to, err)
	}
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, DefaultTimeout)
		defer cancel()
	}
	p, conn, err := c.route(to)
	if err != nil {
		return Envelope{}, err
	}
	c.requests.Add(1)
	seq := c.seq.Add(1)
	env.Seq = seq
	env.From = c.from
	env.To = to

	if conn == nil {
		if conn, err = c.dial(ctx, p); err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return Envelope{}, fmt.Errorf("comm: request to %s: %w", to, cerr)
			}
			return Envelope{}, err
		}
	}
	ch, err := conn.register(seq)
	if err != nil {
		// The connection died between lookup and register: the frame
		// was never written.
		return Envelope{}, fmt.Errorf("comm: request to %s: %w (%w)", to, err, ErrNotSent)
	}
	c.inFlight.Add(1)
	if err := conn.write(ctx, &env); err != nil {
		c.inFlight.Add(-1)
		conn.deregister(seq)
		conn.fail(err)
		if cerr := ctx.Err(); cerr != nil {
			return Envelope{}, fmt.Errorf("comm: request to %s: %w", to, cerr)
		}
		return Envelope{}, fmt.Errorf("comm: request to %s: %w (%w)", to, err, ErrNotSent)
	}
	select {
	case reply, ok := <-ch:
		c.inFlight.Add(-1)
		if !ok {
			// The connection died before the reply arrived — ambiguous:
			// the server may or may not have processed the frame, so no
			// ErrNotSent here.
			return Envelope{}, fmt.Errorf("comm: request to %s: %w", to, conn.failure())
		}
		replyChans.Put(ch) // delivered: nothing else will touch it
		return reply, nil
	case <-ctx.Done():
		c.inFlight.Add(-1)
		conn.deregister(seq)
		return Envelope{}, fmt.Errorf("comm: request to %s: %w", to, ctx.Err())
	}
}

// tcpConn is one pipelined connection. A write mutex serializes outbound
// frames; a demux goroutine owns all reads and routes each reply to the
// waiter registered under its Seq. Replies whose Seq has no waiter — a
// fire-and-forget pong, the late reply of a canceled request, or a
// misbehaving server echoing a wrong Seq — are dropped.
type tcpConn struct {
	client *TCPClient
	peer   *peer
	addr   string
	nc     net.Conn

	wmu sync.Mutex // serializes writeFrame calls onto nc

	mu      sync.Mutex
	waiters map[uint64]chan Envelope
	err     error // set once, when the connection dies
}

// replyChans recycles reply channels. A channel goes back only once its
// one reply has been received: after a cancellation or timeout a late
// reply may still land in it, and after a connection failure it is
// closed.
var replyChans = sync.Pool{New: func() any { return make(chan Envelope, 1) }}

// register adds a reply waiter for seq; fails if the connection died.
func (c *tcpConn) register(seq uint64) (chan Envelope, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return nil, c.err
	}
	ch := replyChans.Get().(chan Envelope)
	c.waiters[seq] = ch
	return ch, nil
}

// deregister abandons a reply waiter (cancellation); the reply, if it
// ever arrives, is dropped by the demux loop.
func (c *tcpConn) deregister(seq uint64) {
	c.mu.Lock()
	delete(c.waiters, seq)
	c.mu.Unlock()
}

// failure returns the error the connection died with.
func (c *tcpConn) failure() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	return errors.New("comm: connection failed")
}

// write sends one frame under the write lock. The context's deadline
// maps onto the write deadline (writes are serialized, so each write
// configures its own); cancellation mid-write expires it early. A
// cancellation that fires in the narrow window after this write
// completes may poison the deadline of the next writer — that write
// fails, tears the connection down and its caller retries on a fresh
// one, so the peer heals itself.
func (c *tcpConn) write(ctx context.Context, env *Envelope) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	deadline, _ := ctx.Deadline() // zero time clears any stale deadline
	c.nc.SetWriteDeadline(deadline)
	stop := context.AfterFunc(ctx, func() {
		c.nc.SetWriteDeadline(time.Unix(1, 0))
	})
	err := writeFrame(c.nc, env)
	stop()
	return err
}

// fail kills the connection: clears the peer's slot if it still holds
// this connection, closes the socket (unblocking the demux read) and
// fails every pending waiter.
func (c *tcpConn) fail(err error) {
	c.client.mu.Lock()
	if c.peer.conn == c {
		c.peer.conn = nil
	}
	c.client.mu.Unlock()
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	waiters := c.waiters
	c.waiters = nil
	c.mu.Unlock()
	c.nc.Close()
	for _, ch := range waiters {
		close(ch) // a closed reply channel signals connection failure
	}
}

// readLoop is the connection's demux goroutine: it owns all reads and
// delivers each reply to the waiter registered under its Seq. It exits
// — failing all remaining waiters — when the connection breaks.
func (c *tcpConn) readLoop() {
	frames := newFrameReader(c.nc)
	for {
		env, err := frames.next()
		if err != nil {
			c.fail(fmt.Errorf("comm: connection to %s lost: %w", c.addr, err))
			return
		}
		c.mu.Lock()
		ch, ok := c.waiters[env.Seq]
		if ok {
			delete(c.waiters, env.Seq)
		}
		c.mu.Unlock()
		if ok {
			ch <- env // buffered; at most one reply is ever delivered per waiter
		}
	}
}
