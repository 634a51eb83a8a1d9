package jobd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sweep"
	"repro/internal/sweepd"
	"repro/internal/tracecache"
	"repro/internal/workload"
)

// cluster starts the given coordinator with n TCP workers, registering a
// cleanup-ordered teardown — the real sharded service the platform
// schedules over, not a loopback stand-in. The caller wires hooks
// (OnWorkersChanged) before this, per the coordinator's contract.
func cluster(t *testing.T, coord *sweepd.Coordinator, n int) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go coord.Serve(ln)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sweepd.Work(ctx, ln.Addr().String(), sweepd.WorkerOptions{
				Name: fmt.Sprintf("w%d", i), Parallelism: 2,
			})
		}(i)
	}
	t.Cleanup(func() {
		cancel()
		coord.Close()
		wg.Wait()
	})
	deadline := time.Now().Add(10 * time.Second)
	for coord.WorkerCount() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d workers registered", coord.WorkerCount(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHTTPEndToEnd is the platform's acceptance drill: two tenants submit
// three jobs each over the HTTP API against a real coordinator with two
// TCP workers; every job completes and every result set is byte-identical
// to the plain local sweep of the same points.
func TestHTTPEndToEnd(t *testing.T) {
	coord := sweepd.NewCoordinator()
	p, err := New(Options{Pool: coord, Tenants: []Tenant{
		{Name: "alice", Token: "tok-a"},
		{Name: "bob", Token: "tok-b"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	coord.OnWorkersChanged = p.Kick
	cluster(t, coord, 2)
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	const instrs = 6000
	pts := wirePoints(t, "E2E", []int{8, 16}, []int{4, 8})

	// The uninterrupted local reference for that exact point set.
	sj, err := sweepd.JobFromWire(&sweepd.WireJob{Profile: mustProfile(t, "gzip"),
		Instructions: instrs, Points: reindex(pts)})
	if err != nil {
		t.Fatal(err)
	}
	runner := sweep.Runner{Workload: sj.Profile, Instructions: instrs,
		Traces: tracecache.New(tracecache.Config{})}
	want, err := runner.Run(context.Background(), sj.Points)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errc := make(chan error, 6)
	for _, tok := range []string{"tok-a", "tok-b"} {
		c := &Client{Server: srv.URL, Token: tok, HTTPClient: srv.Client()}
		for i := 0; i < 3; i++ {
			wg.Add(1)
			go func(c *Client, who string, i int) {
				defer wg.Done()
				st, err := c.Submit(ctx, SubmitRequest{Workload: "gzip",
					Instructions: instrs, Points: pts})
				if err != nil {
					errc <- fmt.Errorf("%s job %d submit: %w", who, i, err)
					return
				}
				wrs := make([]*sweepd.WireResult, len(pts))
				state, err := c.Results(ctx, st.ID, func(wr *sweepd.WireResult) error {
					wrs[wr.Index] = wr
					return nil
				})
				if err != nil || state != StateDone {
					errc <- fmt.Errorf("%s job %d: state=%s err=%w", who, i, state, err)
					return
				}
				got, err := sweepResultsOf(sj, wrs)
				if err != nil {
					errc <- err
					return
				}
				gotJSON, err := json.Marshal(got)
				if err != nil {
					errc <- err
					return
				}
				if string(gotJSON) != string(wantJSON) {
					errc <- fmt.Errorf("%s job %d results differ from the local sweep", who, i)
				}
			}(c, tok, i)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// Both tenants' jobs all terminal, none lost.
	for _, tok := range []string{"tok-a", "tok-b"} {
		c := &Client{Server: srv.URL, Token: tok, HTTPClient: srv.Client()}
		jobs, err := c.List(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(jobs) != 3 {
			t.Fatalf("token %s sees %d jobs, want 3 (tenant scoping)", tok, len(jobs))
		}
		for _, j := range jobs {
			if j.State != StateDone || j.Completed != len(pts) {
				t.Errorf("job %s: state=%s completed=%d", j.ID, j.State, j.Completed)
			}
		}
	}
}

func mustProfile(t testing.TB, name string) workload.Profile {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// reindex normalizes wire point indices to positions (what Submit does
// server-side) for building the local reference job.
func reindex(pts []sweepd.WirePoint) []sweepd.WirePoint {
	out := make([]sweepd.WirePoint, len(pts))
	for i, wp := range pts {
		wp.Index = i
		out[i] = wp
	}
	return out
}

// TestHTTPAuthAndAdmission: wrong tokens get 401; submissions beyond the
// queue and tenant caps get 429 with Retry-After, and the work that was
// admitted is unaffected.
func TestHTTPAuthAndAdmission(t *testing.T) {
	p, err := New(Options{Pool: StaticPool{}, MaxQueue: 2, TenantMaxInFlight: 1,
		Tenants: []Tenant{{Name: "alice", Token: "tok-a"}, {Name: "bob", Token: "tok-b"}}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	ctx := context.Background()
	pts := wirePoints(t, "ADM", []int{8}, []int{4})

	// Unknown and missing tokens are rejected before any platform state.
	for _, token := range []string{"wrong", ""} {
		c := &Client{Server: srv.URL, Token: token, HTTPClient: srv.Client()}
		_, err := c.Submit(ctx, SubmitRequest{Workload: "gzip", Instructions: 1000, Points: pts})
		var se *StatusError
		if !errors.As(err, &se) || se.Code != http.StatusUnauthorized {
			t.Fatalf("token %q: err = %v, want 401", token, err)
		}
	}

	alice := &Client{Server: srv.URL, Token: "tok-a", HTTPClient: srv.Client()}
	bob := &Client{Server: srv.URL, Token: "tok-b", HTTPClient: srv.Client()}
	st, err := alice.Submit(ctx, SubmitRequest{Workload: "gzip", Instructions: 1000, Points: pts})
	if err != nil {
		t.Fatal(err)
	}
	// Alice is at her per-tenant cap: 429, retryable.
	_, err = alice.Submit(ctx, SubmitRequest{Workload: "gzip", Instructions: 1000, Points: pts})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusTooManyRequests || !se.IsRetryable() {
		t.Fatalf("over-cap submit: err = %v, want retryable 429", err)
	}
	// Bob still gets in (admission is per-tenant), filling the queue.
	if _, err := bob.Submit(ctx, SubmitRequest{Workload: "gzip", Instructions: 1000, Points: pts}); err != nil {
		t.Fatal(err)
	}
	// Alice's admitted job was untouched by her rejection: still queued,
	// cancellable, results streamable.
	got, err := alice.Status(ctx, st.ID)
	if err != nil || got.State != StateQueued {
		t.Fatalf("admitted job after sibling rejection: state=%s err=%v", got.State, err)
	}
	if _, err := alice.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	if state, err := alice.Results(ctx, st.ID, nil); err != nil || state != StateCanceled {
		t.Fatalf("canceled job stream: state=%s err=%v", state, err)
	}
	// Cross-tenant access 404s.
	if _, err := bob.Status(ctx, st.ID); !errors.As(err, &se) || se.Code != http.StatusNotFound {
		t.Fatalf("cross-tenant status: err = %v, want 404", err)
	}
}

// TestHTTPMetricsAndHealth: the observability endpoints serve without auth
// and reflect platform state.
func TestHTTPMetricsAndHealth(t *testing.T) {
	p, err := New(Options{Pool: StaticPool{}, Tenants: []Tenant{{Name: "alice", Token: "tok-a"}}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	if _, err := p.Submit("alice", SubmitRequest{Workload: "gzip", Instructions: 1000,
		Points: wirePoints(t, "M", []int{8}, []int{4})}); err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]string{
		"/healthz": "ok",
		"/metrics": `jobd_tenant_jobs_queued{tenant="alice"} 1`,
	} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), want) {
			t.Errorf("%s: status=%d body does not contain %q:\n%s", path, resp.StatusCode, want, body)
		}
	}
}
