package jobd

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/sweepd"
)

// capturedStreams runs a small job on a loopback worker and returns the
// bytes its results, telemetry and trace streams served, trailers
// included.
func capturedStreams(t testing.TB) [][]byte {
	t.Helper()
	p, err := New(Options{Pool: StaticPool{sweepd.NewLoopbackWorker(sweepd.LoopbackOptions{})},
		TelemetryEvery: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	st, err := p.Submit("default", SubmitRequest{Workload: "gzip", Instructions: 3000,
		Points: wirePoints(t, "FUZZ", []int{8, 16}, []int{4})})
	if err != nil {
		t.Fatal(err)
	}
	var bodies [][]byte
	for _, path := range []string{resultStream.path, telemetryStream.path, traceStream.path} {
		resp, err := srv.Client().Get(srv.URL + "/v1/jobs/" + st.ID + "/" + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	return bodies
}

// FuzzReadStream serves arbitrary bytes as a job's results stream and
// decodes them with the client. Every input must end in an error or a
// terminal job state, and every result handed to the consumer must be
// one it can read.
func FuzzReadStream(f *testing.F) {
	for _, body := range capturedStreams(f) {
		f.Add(body)
	}
	// Well-formed JSON the server never sends: a trailer without a state
	// and a null item.
	f.Add([]byte(`{"done":true}` + "\n"))
	f.Add([]byte(`{"result":null}` + "\n" + `{"done":true,"state":"done"}` + "\n"))
	// Each call serves its own body under its own job ID, so the one
	// server is safe to share.
	var (
		bodies sync.Map
		nextID atomic.Uint64
	)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/{id}/"+resultStream.path, func(w http.ResponseWriter, r *http.Request) {
		body, _ := bodies.Load(r.PathValue("id"))
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Write(body.([]byte)) //nolint:errcheck
	})
	srv := httptest.NewServer(mux)
	f.Cleanup(srv.Close)
	c := &Client{Server: srv.URL, HTTPClient: srv.Client()}

	f.Fuzz(func(t *testing.T, body []byte) {
		id := strconv.FormatUint(nextID.Add(1), 10)
		bodies.Store(id, body)
		defer bodies.Delete(id)
		state, err := c.Results(context.Background(), id, func(wr *sweepd.WireResult) error {
			_ = wr.Index // what every consumer reads first
			return nil
		})
		if err == nil && !state.Terminal() {
			t.Fatalf("stream yielded neither an error nor a terminal state (state %q)", state)
		}
	})
}
