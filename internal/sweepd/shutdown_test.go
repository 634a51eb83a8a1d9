package sweepd_test

import (
	"context"
	"log/slog"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sweepd"
)

// TestCoordinatorCloseDrainsGoroutines: closing the coordinator while a
// client job is mid-flight must deterministically cancel and drain every
// goroutine the service spawned — accept loops, per-connection handlers,
// client cancellation watchers, scheduler requeue machinery — and the
// worker and client processes must unwind too. The assertion is a hard
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
		if event == "sweepd.job_start" {
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

	// A client job big enough to still be running when Close lands.
	job := testJob(t)
	job.Instructions = 500_000
	clientErr := make(chan error, 1)
	go func() {
		_, err := sweepd.RunRemote(context.Background(), addr, job, nil)
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
			t.Fatal("client job reported success across a coordinator shutdown")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("client still blocked 10s after coordinator Close returned")
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
