package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mirabel/internal/agg"
	"mirabel/internal/comm"
	"mirabel/internal/core"
	"mirabel/internal/flexoffer"
	"mirabel/internal/forecast"
	"mirabel/internal/ingest"
	"mirabel/internal/sched"
	"mirabel/internal/settle"
	"mirabel/internal/store"
)

const (
	brpName = "brp"
	// schedBudget never binds: planning is bounded by iterations so a
	// cycle's latency can move. A run whose search reaches it fails.
	schedBudget = 60 * time.Second
	opTimeout   = 30 * time.Second
)

// owner is one load client: a closed-loop submitter with a single TCP
// connection to the node, and at the same time the endpoint the node
// delivers that client's schedules to.
type owner struct {
	name string
	tx   *comm.TCPClient
	rpc  *comm.Client
	srv  *comm.TCPServer

	in *inbox // shared by all owners

	mu        sync.Mutex
	delivered []*flexoffer.Schedule // decoded since the last take
}

// inbox is what the harness waits on for delivery: how many schedules
// the owners have decoded in total and when the latest one was.
type inbox struct {
	received atomic.Int64
	last     atomic.Int64  // clock reading after the latest decode
	wake     chan struct{} // cap 1: "received moved"
}

func (o *owner) handleNotify(_ context.Context, env comm.Envelope) (*comm.Envelope, error) {
	var body comm.ScheduleNotify
	if err := env.Decode(comm.MsgScheduleNotify, &body); err != nil {
		return nil, err
	}
	o.mu.Lock()
	o.delivered = append(o.delivered, body.Schedules...)
	o.mu.Unlock()
	for now := int64(clock()); ; {
		prev := o.in.last.Load()
		if now <= prev || o.in.last.CompareAndSwap(prev, now) {
			break
		}
	}
	o.in.received.Add(int64(len(body.Schedules)))
	select {
	case o.in.wake <- struct{}{}:
	default:
	}
	return nil, nil
}

func (o *owner) take() []*flexoffer.Schedule {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := o.delivered
	o.delivered = nil
	return out
}

func (o *owner) close() {
	_ = o.tx.Close()
	_ = o.srv.Close()
}

// bench is the system under test plus its load clients: one BRP node in
// the production composition (durable store, ingest journal, forecast
// registry, settlement ledger, retry policy) served over real TCP.
type bench struct {
	dir    string
	node   *core.Node
	srv    *comm.TCPServer
	nodeTx *comm.TCPClient
	owners []*owner
}

// startOwners opens the nclients owner endpoints. They outlive node
// restarts (recover reopens the node under the same owners).
func startOwners(nclients int) ([]*owner, error) {
	owners := make([]*owner, 0, nclients)
	in := &inbox{wake: make(chan struct{}, 1)}
	for i := 0; i < nclients; i++ {
		o := &owner{name: fmt.Sprintf("owner%d", i), in: in}
		mux := comm.NewMux()
		mux.Handle(comm.MsgScheduleNotify, o.handleNotify)
		srv, err := comm.ListenTCP("127.0.0.1:0", mux.Serve)
		if err != nil {
			for _, prev := range owners {
				prev.close()
			}
			return nil, err
		}
		o.srv = srv
		// One connection per client: requests in flight never exceed the
		// client count.
		o.tx = comm.NewTCPClient(o.name, comm.WithPoolSize(1))
		o.rpc = comm.NewClient(o.name, o.tx, comm.WithRequestTimeout(opTimeout))
		owners = append(owners, o)
	}
	return owners, nil
}

// startup holds the clock readings that split a node start: after
// store.Open (WAL replay) and after core.NewNode (journal and ledger
// replay, re-admission of pending offers).
type startup struct{ storeOpen, newNode time.Duration }

// openNode opens (or reopens) the node over dir and serves it on TCP.
func openNode(dir string, seed int64, maxIter int, owners []*owner) (*bench, startup, error) {
	var up startup
	st, err := store.Open(dir)
	if err != nil {
		return nil, up, err
	}
	up.storeOpen = clock()

	nodeTx := comm.NewTCPClient(brpName)
	for _, o := range owners {
		nodeTx.SetRoute(o.name, o.srv.Addr())
	}
	node, err := core.NewNode(core.Config{
		Name: brpName, Role: store.RoleBRP, Transport: nodeTx, Store: st,
		AggParams:    agg.ParamsP3,
		SchedOpts:    sched.Options{TimeBudget: schedBudget, MaxIterations: maxIter, Seed: seed},
		SchedWorkers: 1,
		AggWorkers:   1,
		Ingest:       &ingest.Config{Path: filepath.Join(dir, "ingest.log"), Policy: ingest.PolicyBlock},
		Forecasting:  &forecast.RegistryConfig{},
		Settlement:   &settle.LedgerConfig{Path: filepath.Join(dir, "ledger.log")},
		Retry:        &comm.RetryConfig{Seed: seed},
	})
	if err != nil {
		_ = st.Close()
		_ = nodeTx.Close()
		return nil, up, err
	}
	up.newNode = clock()
	srv, err := comm.ListenTCP("127.0.0.1:0", node.Handler())
	if err != nil {
		node.Kill()
		_ = nodeTx.Close()
		return nil, up, err
	}
	for _, o := range owners {
		o.tx.SetRoute(brpName, srv.Addr())
	}
	return &bench{dir: dir, node: node, srv: srv, nodeTx: nodeTx, owners: owners}, up, nil
}

// kill abandons the node the way a crash would (core.Node.Kill: no
// drain barrier) and leaves the owners running.
func (b *bench) kill() {
	_ = b.srv.Close()
	b.node.Kill()
	_ = b.nodeTx.Close()
}

func (b *bench) received() int64 { return b.owners[0].in.received.Load() }

// awaitDelivery blocks until the owners have decoded want schedules in
// total and returns the clock reading of the last decode.
func (b *bench) awaitDelivery(want int64) (time.Duration, error) {
	in := b.owners[0].in
	deadline := time.NewTimer(opTimeout)
	defer deadline.Stop()
	for in.received.Load() < want {
		select {
		case <-in.wake:
		case <-deadline.C:
			return 0, fmt.Errorf("delivery: %d of %d schedules decoded after %v", in.received.Load(), want, opTimeout)
		}
	}
	return time.Duration(in.last.Load()), nil
}
