package chaos

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"mirabel/internal/comm"
)

// okTransport counts deliveries and always succeeds.
type okTransport struct {
	sends, requests int
}

func (t *okTransport) Send(ctx context.Context, to string, env comm.Envelope) error {
	t.sends++
	return nil
}

func (t *okTransport) Request(ctx context.Context, to string, env comm.Envelope) (comm.Envelope, error) {
	t.requests++
	return comm.Envelope{Type: comm.MsgPong, From: to, To: env.From}, nil
}

func ping(from, to string) comm.Envelope {
	env, _ := comm.NewEnvelope(comm.MsgPing, from, to, nil)
	return env
}

func TestInjectorDeterministicStreams(t *testing.T) {
	run := func(seed uint64) (Stats, []error) {
		inner := &okTransport{}
		inj := NewInjector(inner, seed, Faults{DropFrac: 0.3, ErrFrac: 0.1})
		var errs []error
		for i := 0; i < 500; i++ {
			_, err := inj.Request(context.Background(), "brp-0", ping("p", "brp-0"))
			errs = append(errs, err)
		}
		for i := 0; i < 300; i++ {
			errs = append(errs, inj.Send(context.Background(), "brp-1", ping("p", "brp-1")))
		}
		return inj.Stats(), errs
	}
	a, aErrs := run(42)
	b, bErrs := run(42)
	if a != b {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	for i := range aErrs {
		if (aErrs[i] == nil) != (bErrs[i] == nil) {
			t.Fatalf("op %d fate diverged: %v vs %v", i, aErrs[i], bErrs[i])
		}
	}
	if a.Drops == 0 || a.Errors == 0 {
		t.Errorf("faults never fired: %+v", a)
	}
	// Rough rate check: 30% drops over 800 ops.
	if a.Drops < 160 || a.Drops > 320 {
		t.Errorf("drop count %d far from 30%% of %d", a.Drops, a.Ops)
	}
	c, _ := run(43)
	if a == c {
		t.Error("different seeds produced identical stats")
	}
}

func TestInjectorDropIsNotSent(t *testing.T) {
	inner := &okTransport{}
	inj := NewInjector(inner, 1, Faults{DropFrac: 1})
	err := inj.Send(context.Background(), "brp-0", ping("p", "brp-0"))
	if !errors.Is(err, comm.ErrNotSent) {
		t.Fatalf("drop error = %v, want ErrNotSent", err)
	}
	if inner.sends != 0 {
		t.Error("dropped message reached the wire")
	}
}

func TestInjectorErrorIsAmbiguousAfterDelivery(t *testing.T) {
	inner := &okTransport{}
	inj := NewInjector(inner, 1, Faults{ErrFrac: 1})
	_, err := inj.Request(context.Background(), "brp-0", ping("p", "brp-0"))
	if err == nil {
		t.Fatal("injected error did not surface")
	}
	if errors.Is(err, comm.ErrNotSent) {
		t.Error("post-delivery error claims the message was not sent")
	}
	if inner.requests != 1 {
		t.Errorf("delivery count = %d, want 1 (error injects after delivery)", inner.requests)
	}
}

func TestInjectorPartition(t *testing.T) {
	inner := &okTransport{}
	inj := NewInjector(inner, 1, Faults{})
	inj.Partition("brp-0")
	err := inj.Send(context.Background(), "brp-0", ping("p", "brp-0"))
	if !errors.Is(err, comm.ErrNotSent) {
		t.Fatalf("partitioned error = %v, want ErrNotSent", err)
	}
	if err := inj.Send(context.Background(), "brp-1", ping("p", "brp-1")); err != nil {
		t.Fatalf("unpartitioned peer failed: %v", err)
	}
	inj.Heal("brp-0")
	if err := inj.Send(context.Background(), "brp-0", ping("p", "brp-0")); err != nil {
		t.Fatalf("healed peer failed: %v", err)
	}
	if st := inj.Stats(); st.Partitioned != 1 {
		t.Errorf("partitioned = %d, want 1", st.Partitioned)
	}
}

func TestInjectorLatencyHonorsContext(t *testing.T) {
	inner := &okTransport{}
	inj := NewInjector(inner, 1, Faults{LatBase: time.Hour})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := inj.Send(ctx, "brp-0", ping("p", "brp-0"))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("cancelled wait took %v", elapsed)
	}
}

func TestInjectorSpikeDelays(t *testing.T) {
	inner := &okTransport{}
	inj := NewInjector(inner, 1, Faults{SpikeFrac: 1, Spike: 20 * time.Millisecond})
	start := time.Now()
	if err := inj.Send(context.Background(), "brp-0", ping("p", "brp-0")); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Errorf("spiked send returned after %v, want >= 20ms", elapsed)
	}
	if st := inj.Stats(); st.Spikes != 1 {
		t.Errorf("spikes = %d, want 1", st.Spikes)
	}
}

func TestParseSchedule(t *testing.T) {
	s, err := ParseSchedule("drop=0.1,err=0.01,spike=0.02:200ms,lat=1ms:2ms,part=brp-1@3-4,crash=brp-0@3+2")
	if err != nil {
		t.Fatal(err)
	}
	want := Faults{
		DropFrac: 0.1, ErrFrac: 0.01,
		SpikeFrac: 0.02, Spike: 200 * time.Millisecond,
		LatBase: time.Millisecond, LatJitter: 2 * time.Millisecond,
	}
	if s.Faults != want {
		t.Errorf("faults = %+v, want %+v", s.Faults, want)
	}
	if len(s.Parts) != 1 || s.Parts[0] != (PartitionWindow{Dest: "brp-1", From: 3, To: 4}) {
		t.Errorf("parts = %+v", s.Parts)
	}
	if len(s.Crashes) != 1 || s.Crashes[0] != (CrashPlan{Node: "brp-0", At: 3, Down: 2}) {
		t.Errorf("crashes = %+v", s.Crashes)
	}
	if empty, err := ParseSchedule("  "); err != nil || len(empty.Parts) != 0 {
		t.Errorf("empty schedule: %+v, %v", empty, err)
	}
	for _, bad := range []string{
		"drop=2", "bogus=1", "spike=0.1", "part=brp@4-3", "crash=brp@1+0", "part=@1-2", "drop",
	} {
		if _, err := ParseSchedule(bad); err == nil {
			t.Errorf("schedule %q accepted", bad)
		}
	}
}

// FuzzParseSchedule: every schedule the parser accepts is one the
// injector and controller can run — fractions in [0,1] (NaN never
// fires), no negative durations, ordered windows, and heal and restart
// cycles that do not overflow.
func FuzzParseSchedule(f *testing.F) {
	for _, s := range []string{
		"",
		"drop=0.1,err=0.01,spike=0.02:200ms,lat=1ms:2ms,part=brp-1@3-4,crash=brp-0@3+2",
		"drop=1,err=0",
		"spike=0.5:1s",
		"lat=0s:0s",
		"part=a@0-0,part=b-2@1-9",
		"crash=n@0+1,crash=m@7+3",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sched, err := ParseSchedule(s)
		if err != nil {
			return
		}
		fs := sched.Faults
		for _, frac := range []float64{fs.DropFrac, fs.ErrFrac, fs.SpikeFrac} {
			if !(frac >= 0 && frac <= 1) {
				t.Fatalf("%q: fraction %v outside [0,1]", s, frac)
			}
		}
		if fs.Spike < 0 || fs.LatBase < 0 || fs.LatJitter < 0 {
			t.Fatalf("%q: negative duration in %+v", s, fs)
		}
		for _, p := range sched.Parts {
			if p.From < 0 || p.To < p.From || p.To+1 < p.To {
				t.Fatalf("%q: bad window %+v", s, p)
			}
		}
		for _, c := range sched.Crashes {
			if c.At < 0 || c.Down < 1 || c.At+c.Down < c.At {
				t.Fatalf("%q: bad crash plan %+v", s, c)
			}
		}
	})
}

func TestControllerDrivesSchedule(t *testing.T) {
	sched, err := ParseSchedule("part=brp-1@2-3,crash=brp-0@1+2")
	if err != nil {
		t.Fatal(err)
	}
	inner := &okTransport{}
	inj := NewInjector(inner, 1, Faults{})
	ctl := NewController(sched, inj)
	var log []string
	ctl.RegisterNode("brp-0", NodeHooks{
		Kill:    func() error { log = append(log, "kill"); return nil },
		Restart: func() error { log = append(log, "restart"); return nil },
	})

	sendOK := func() bool {
		return inj.Send(context.Background(), "brp-1", ping("p", "brp-1")) == nil
	}
	for cycle := 0; cycle <= 5; cycle++ {
		if err := ctl.BeginCycle(cycle); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		partitioned := cycle >= 2 && cycle <= 3
		if sendOK() != !partitioned {
			t.Errorf("cycle %d: partitioned=%v, send succeeded=%v", cycle, partitioned, !partitioned)
		}
	}
	if fmt.Sprint(log) != "[kill restart]" {
		t.Errorf("crash hook order = %v", log)
	}
	st := ctl.Stats()
	if st.Kills != 1 || st.Restarts != 1 || st.PartsCut != 1 || st.Healed != 1 {
		t.Errorf("controller stats = %+v", st)
	}
	if got := ctl.Events(); fmt.Sprint(got) != "[1 2 3 4]" {
		t.Errorf("events = %v", got)
	}
}

func TestControllerRejectsUnknownNode(t *testing.T) {
	sched, err := ParseSchedule("crash=ghost@0+1")
	if err != nil {
		t.Fatal(err)
	}
	ctl := NewController(sched)
	if err := ctl.BeginCycle(0); err == nil {
		t.Error("crash of unregistered node accepted")
	}
}
