package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"log"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestFlagSet pins the daemon's command line: a new flag is a visible
// diff here.
func TestFlagSet(t *testing.T) {
	fs := flag.NewFlagSet("mirabel-node", flag.ContinueOnError)
	flags(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	want := []string{
		"data", "demo-offer", "fsync", "ingest-policy", "listen", "name",
		"parent", "ping", "retry-attempts", "role", "route", "v",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flags = %v\nwant    %v", got, want)
	}
}

// logWatch is a log sink two running nodes can share. It hands the
// address the first node logs it serves on to serving.
type logWatch struct {
	mu      sync.Mutex
	b       bytes.Buffer
	serving chan string // buffered 1: Write never blocks on it
}

func (w *logWatch) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, addr, ok := strings.Cut(string(p), " serving on "); ok && w.serving != nil {
		w.serving <- strings.TrimSpace(addr)
		w.serving = nil
	}
	return w.b.Write(p)
}

func (w *logWatch) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

// TestTwoNodeSession runs the package comment's session in-process on
// loopback: a durable BRP, then a prosumer whose -demo-offer is
// negotiated over TCP and accepted.
func TestTwoNodeSession(t *testing.T) {
	logs := &logWatch{serving: make(chan string, 1)}
	log.SetOutput(logs)
	defer log.SetOutput(os.Stderr)
	addrs := logs.serving

	stop := make(chan os.Signal, 1)
	brpDone := make(chan error, 1)
	go func() {
		brpDone <- run([]string{"-name", "brp1", "-role", "brp", "-listen", "127.0.0.1:0", "-data", t.TempDir()}, io.Discard, stop)
	}()
	var addr string
	select {
	case addr = <-addrs:
	case err := <-brpDone:
		t.Fatalf("brp exited before serving: %v\n%s", err, logs)
	case <-time.After(10 * time.Second):
		t.Fatalf("brp not serving after 10s:\n%s", logs)
	}

	var out bytes.Buffer
	err := run([]string{
		"-name", "p1", "-role", "prosumer", "-parent", "brp1",
		"-route", "brp1=" + addr, "-listen", "127.0.0.1:0",
		"-demo-offer",
	}, &out, nil)
	if err != nil {
		t.Fatalf("prosumer: %v\n%s", err, logs)
	}
	if !strings.Contains(out.String(), "accept=true") {
		t.Errorf("prosumer printed %q, want an accepted demo offer", out.String())
	}

	stop <- os.Interrupt
	if err := <-brpDone; err != nil {
		t.Fatalf("brp: %v", err)
	}
	if !strings.Contains(logs.String(), "shutting down") {
		t.Errorf("brp did not shut down on the signal:\n%s", logs)
	}
}

// TestRunRefusesTheTSOLevel pins the two-level hierarchy on the command
// line: tso is not a role, and a brp has no parent to forward to. A
// prosumer keeps nothing on disk, so it takes no -data, and a demo
// offer needs the -parent it goes to. It also pins that -retry-attempts
// counts the first attempt, so a value below 1 is a usage error, not
// "no retries". All fail before the node listens; the stop already
// delivered would end a node that served anyway.
func TestRunRefusesTheTSOLevel(t *testing.T) {
	for _, tc := range []struct {
		name  string
		args  []string
		usage bool
	}{
		{"tso role", []string{"-name", "tso", "-role", "tso"}, true},
		{"brp with a parent", []string{"-name", "brp1", "-role", "brp", "-parent", "x"}, false},
		{"zero attempts", []string{"-name", "brp1", "-role", "brp", "-retry-attempts", "0"}, true},
		{"negative attempts", []string{"-name", "brp1", "-role", "brp", "-retry-attempts", "-5"}, true},
		{"prosumer with data", []string{"-name", "p1", "-role", "prosumer", "-data", t.TempDir()}, true},
		{"demo offer without a parent", []string{"-name", "p1", "-role", "prosumer", "-demo-offer"}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			logs := &logWatch{}
			log.SetOutput(logs)
			defer log.SetOutput(os.Stderr)
			stop := make(chan os.Signal, 1)
			stop <- os.Interrupt
			err := run(append(tc.args, "-listen", "127.0.0.1:0"), io.Discard, stop)
			switch {
			case err == nil:
				t.Fatalf("run accepted %v", tc.args)
			case tc.usage && !errors.Is(err, errUsage):
				t.Errorf("run = %v, want errUsage", err)
			}
			if strings.Contains(logs.String(), "serving on") {
				t.Errorf("node served before refusing:\n%s", logs)
			}
		})
	}
}
