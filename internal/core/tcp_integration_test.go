package core

import (
	"context"
	"testing"
	"time"

	"mirabel/internal/agg"
	"mirabel/internal/comm"
	"mirabel/internal/flexoffer"
	"mirabel/internal/prosumer"
	"mirabel/internal/sched"
	"mirabel/internal/store"
)

// TestNodesOverTCP wires a prosumer endpoint and a durable BRP over the
// real TCP transport and runs the full §2 flow: submit → negotiate →
// schedule → disaggregate → notify, then verifies the BRP's reopened
// store holds the offer scheduled as delivered: the prosumer keeps
// nothing on disk, and the BRP's WAL is the durable copy.
func TestNodesOverTCP(t *testing.T) {
	brpDir := t.TempDir()

	brpStore, err := store.Open(brpDir)
	if err != nil {
		t.Fatal(err)
	}
	brpClient := comm.NewTCPClient("brp1")
	defer brpClient.Close()
	brp := mustNode(t, nil, Config{
		Name: "brp1", Transport: brpClient, Store: brpStore,
		AggParams: agg.ParamsP3,
		SchedOpts: sched.Options{MaxIterations: 3, Seed: 1},
	})
	brpSrv, err := comm.ListenTCP("127.0.0.1:0", brp.Handler())
	if err != nil {
		t.Fatal(err)
	}
	defer brpSrv.Close()

	pClient := comm.NewTCPClient("p1")
	defer pClient.Close()
	pClient.SetRoute("brp1", brpSrv.Addr())
	p1 := prosumer.New("p1", comm.NewClient("p1", pClient))
	pSrv, err := comm.ListenTCP("127.0.0.1:0", p1.Handler())
	if err != nil {
		t.Fatal(err)
	}
	defer pSrv.Close()
	brpClient.SetRoute("p1", pSrv.Addr())

	// Submit an offer over the wire.
	offer := testOffer(1, 40, 16, 4, 5)
	decision, err := p1.Submit(context.Background(), "brp1", offer)
	if err != nil {
		t.Fatal(err)
	}
	if !decision.Accept {
		t.Fatalf("rejected over TCP: %s", decision.Reason)
	}

	// Schedule and deliver over the wire.
	baseline := make([]float64, flexoffer.SlotsPerDay)
	for i := 40; i < 60; i++ {
		baseline[i] = -5
	}
	rep, err := brp.RunSchedulingCycle(context.Background(), 0, StaticForecast(baseline), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MicroSchedules != 1 || rep.NotifyFailures != 0 {
		t.Fatalf("cycle report = %+v", rep)
	}

	var sched1 *flexoffer.Schedule
	for deadline := time.Now().Add(3 * time.Second); time.Now().Before(deadline); {
		if sched1 = scheduleOf(p1, offer.ID); sched1 != nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if sched1 == nil {
		t.Fatal("schedule never delivered over TCP")
	}
	if err := offer.ValidateSchedule(sched1); err != nil {
		t.Fatal(err)
	}

	// Restart the BRP's store: the scheduled state must survive.
	if err := brp.Close(); err != nil {
		t.Fatal(err)
	}
	if err := brpStore.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := store.Open(brpDir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	rec, ok := reopened.GetOffer(1)
	if !ok || rec.State != store.OfferScheduled || rec.Schedule == nil {
		t.Fatalf("state lost across restart: %+v, %v", rec, ok)
	}
	if rec.Schedule.Start != sched1.Start {
		t.Errorf("persisted start %d != delivered %d", rec.Schedule.Start, sched1.Start)
	}
}
