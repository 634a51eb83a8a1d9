package sweepd_test

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"log/slog"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sweepd"
)

// TestCoordinatorCloseDrainsGoroutines: closing the coordinator while a
// job is mid-flight on its workers must deterministically cancel and
// drain every goroutine the service spawned — accept loops,
// per-connection handlers, heartbeats, scheduler requeue machinery — and
// the worker processes and the job's scheduler must unwind too. The assertion is a hard
// goroutine count: everything the test started is gone afterwards, so a
// leaked conn handler racing Close fails loudly here instead of
// accumulating in a long-lived daemon.
func TestCoordinatorCloseDrainsGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	started := make(chan struct{})
	hsTimedOut := make(chan struct{})
	var once, hsOnce sync.Once
	coord := sweepd.NewCoordinator()
	coord.HandshakeTimeout = 150 * time.Millisecond
	coord.Log = recordLog(func(event string, _ map[string]string) {
		// A point's first shipped checkpoint: the job is running and
		// still mid-point.
		if event == "sweepd.checkpoint_received" {
			once.Do(func() { close(started) })
		}
		if event == "sweepd.handshake_timeout" {
			hsOnce.Do(func() { close(hsTimedOut) })
		}
	})
	addr, err := coord.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// A peer that connects and never speaks: without the handshake
	// deadline, its handler goroutine would sit in the hello read until
	// Close and trip the goroutine-count assertion below. It must instead
	// be reaped on its own, while the coordinator is still running.
	silent, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	select {
	case <-hsTimedOut:
	case <-time.After(10 * time.Second):
		t.Fatal("silent connection was never reaped by the handshake deadline")
	}

	wctx, stop := context.WithCancel(context.Background())
	defer stop()
	var workers sync.WaitGroup
	for i := 0; i < 2; i++ {
		workers.Add(1)
		go func(i int) {
			defer workers.Done()
			sweepd.Work(wctx, addr, sweepd.WorkerOptions{Name: "w" + itoa(i+1)}) //nolint:errcheck
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for coord.WorkerCount() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("workers never registered")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// A job big enough to still be running when Close lands.
	job := testJob(t)
	job.Instructions = 500_000
	clientErr := make(chan error, 1)
	go func() {
		_, err := sweepd.Run(context.Background(), job, coord.Workers(), nil)
		clientErr <- err
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("job never started")
	}

	// Race Close against the in-flight job: it must abort the job, not
	// wedge behind it.
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-clientErr:
		if err == nil {
			t.Fatal("job reported success across a coordinator shutdown")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("job still blocked 10s after coordinator Close returned")
	}
	stop()
	workers.Wait()

	// Everything drained: the goroutine count settles back to the baseline
	// (small transient slack for runtime/netpoll goroutines still parking).
	deadline = time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked across Close: before=%d after=%d\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClientHelloRefused: sweeps enter through the job service, never the
// worker wire, so a peer that says hello as a "client" is refused at the
// handshake — logged, disconnected, and leaving no handler goroutine.
func TestClientHelloRefused(t *testing.T) {
	failed := make(chan map[string]string, 1)
	coord := sweepd.NewCoordinator()
	coord.Log = recordLog(func(event string, attrs map[string]string) {
		if event == "sweepd.handshake_failed" {
			failed <- attrs
		}
	})
	addr, err := coord.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	before := runtime.NumGoroutine()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	// The coordinator speaks first; answer its hello in its own protocol
	// version so only the role can be at fault.
	var theirs struct {
		Hello struct {
			Proto int `json:"proto"`
		} `json:"hello"`
	}
	if err := json.Unmarshal(readFrame(t, conn), &theirs); err != nil {
		t.Fatal(err)
	}
	hello, err := json.Marshal(sweepd.Message{Type: "hello",
		Hello: &sweepd.Hello{Proto: theirs.Hello.Proto, Role: "client"}})
	if err != nil {
		t.Fatal(err)
	}
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(hello)))
	if _, err := conn.Write(append(frame, hello...)); err != nil {
		t.Fatal(err)
	}

	select {
	case attrs := <-failed:
		if !strings.Contains(attrs["err"], `role "client"`) {
			t.Errorf("handshake_failed err = %q, want the client role named", attrs["err"])
		}
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator never logged sweepd.handshake_failed for a client hello")
	}
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read after the refused hello = %v, want io.EOF (connection closed)", err)
	}
	if n := coord.WorkerCount(); n != 0 {
		t.Fatalf("a client hello registered %d workers", n)
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("handler goroutine left behind: before=%d after=%d\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// readFrame reads one length-prefixed frame's payload.
func readFrame(t *testing.T, r io.Reader) []byte {
	t.Helper()
	var prefix [4]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, binary.BigEndian.Uint32(prefix[:]))
	if _, err := io.ReadFull(r, payload); err != nil {
		t.Fatal(err)
	}
	return payload
}

// recordLog returns a logger handing fn every event with its attributes
// rendered as strings — how tests wait on what a layer logs.
func recordLog(fn func(event string, attrs map[string]string)) *obs.Logger {
	return obs.NewSlogLogger(slog.New(recordHandler(fn)))
}

type recordHandler func(event string, attrs map[string]string)

func (recordHandler) Enabled(context.Context, slog.Level) bool { return true }

func (h recordHandler) Handle(_ context.Context, r slog.Record) error {
	attrs := make(map[string]string, r.NumAttrs())
	r.Attrs(func(a slog.Attr) bool {
		attrs[a.Key] = a.Value.String()
		return true
	})
	h(r.Message, attrs)
	return nil
}

func (h recordHandler) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h recordHandler) WithGroup(string) slog.Handler      { return h }
