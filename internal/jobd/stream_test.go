package jobd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/sweep"
	"repro/internal/sweepd"
)

// TestStreamWireFormat pins the NDJSON framing every job stream shares: an
// item line is {"<key>":<item JSON>}, the stream ends with a
// {"done":true,"state":…} trailer whose err is omitted when empty, an
// unknown job is a JSON 404, and a stream the server cuts off before its
// trailer makes the Client method fail.
func TestStreamWireFormat(t *testing.T) {
	cases := []struct {
		path, key string
		state     State
		errStr    string
		trailer   string
		follow    func(c *Client, ctx context.Context, id string, n *int) (State, error)
	}{
		{"results", "result", StateDone, "", `{"done":true,"state":"done"}`,
			func(c *Client, ctx context.Context, id string, n *int) (State, error) {
				return c.Results(ctx, id, func(*sweepd.WireResult) error { *n++; return nil })
			}},
		{"telemetry", "telemetry", StateCanceled, "canceled by client",
			`{"done":true,"state":"canceled","err":"canceled by client"}`,
			func(c *Client, ctx context.Context, id string, n *int) (State, error) {
				return c.Telemetry(ctx, id, func(core.IntervalSnapshot) error { *n++; return nil })
			}},
		{"trace", "span", StateDone, "", `{"done":true,"state":"done"}`,
			func(c *Client, ctx context.Context, id string, n *int) (State, error) {
				return c.Trace(ctx, id, func(TraceSpan) error { *n++; return nil })
			}},
	}
	for _, tc := range cases {
		t.Run(tc.path, func(t *testing.T) {
			p, err := New(Options{Pool: StaticPool{}})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			srv := httptest.NewServer(p.Handler())
			defer srv.Close()
			ctx := context.Background()

			// No workers: the job stays queued while the test feeds each
			// stream one item by hand, then ends it.
			st, err := p.Submit("default", SubmitRequest{Workload: "gzip", Instructions: 1000,
				Points: wirePoints(t, "WIRE", []int{8}, []int{4})})
			if err != nil {
				t.Fatal(err)
			}
			p.mu.Lock()
			j := p.jobs[st.ID]
			p.mu.Unlock()
			p.onTelemetry(j, 0, core.IntervalSnapshot{Seq: 0, StartCycle: 0, EndCycle: 100})
			p.onResult(j, "w0", sweepd.PointResult{Index: 0,
				Result: sweep.Result{Point: j.sj.Points[0], Err: errors.New("boom")}})
			p.mu.Lock()
			p.finalizeLocked(j, tc.state, tc.errStr)
			p.mu.Unlock()

			resp, err := srv.Client().Get(srv.URL + "/v1/jobs/" + st.ID + "/" + tc.path)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
				t.Errorf("Content-Type = %q", ct)
			}
			lines := bytes.SplitAfter(body, []byte("\n"))
			if last := lines[len(lines)-1]; len(last) != 0 {
				t.Fatalf("stream does not end with a newline: %q", body)
			}
			lines = lines[:len(lines)-1]
			if len(lines) < 2 {
				t.Fatalf("stream has %d lines, want items and a trailer:\n%s", len(lines), body)
			}
			// The item line: the item's own JSON under its key, nothing else.
			item := lines[0]
			prefix := []byte(`{"` + tc.key + `":`)
			if !bytes.HasPrefix(item, prefix) || !bytes.HasSuffix(item, []byte("}\n")) {
				t.Fatalf("item line %q is not %s<item>}", item, prefix)
			}
			inner := item[len(prefix) : len(item)-2]
			var v any
			switch tc.key {
			case "result":
				v = new(sweepd.WireResult)
			case "telemetry":
				v = new(core.IntervalSnapshot)
			case "span":
				v = new(TraceSpan)
			}
			if err := json.Unmarshal(inner, v); err != nil {
				t.Fatalf("item %q: %v", inner, err)
			}
			if again, _ := json.Marshal(v); !bytes.Equal(again, inner) {
				t.Fatalf("item line carries %s, want its encoding %s", inner, again)
			}
			if tc.key == "result" {
				if want := `{"result":{"index":0,"name":"WIRE/rb=8/lsq=4","err":"boom"}}` + "\n"; string(item) != want {
					t.Fatalf("result line = %q, want %q", item, want)
				}
			}
			if got := string(lines[len(lines)-1]); got != tc.trailer+"\n" {
				t.Fatalf("trailer = %q, want %q", got, tc.trailer+"\n")
			}

			// Unknown job: a JSON 404, not an empty stream.
			resp, err = srv.Client().Get(srv.URL + "/v1/jobs/jnope/" + tc.path)
			if err != nil {
				t.Fatal(err)
			}
			body, _ = io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound ||
				resp.Header.Get("Content-Type") != "application/json" ||
				string(body) != `{"error":"jobd: unknown job"}`+"\n" {
				t.Fatalf("unknown job: %d %q %q", resp.StatusCode, resp.Header.Get("Content-Type"), body)
			}

			// A server that ends the stream after one item and no trailer:
			// the client delivers the item, then reports the truncation.
			cut := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/x-ndjson")
				w.Write(item)
			}))
			defer cut.Close()
			n := 0
			c := &Client{Server: cut.URL, HTTPClient: cut.Client()}
			if state, err := tc.follow(c, ctx, st.ID, &n); err == nil {
				t.Fatalf("truncated stream returned state=%q and no error", state)
			}
			if n != 1 {
				t.Fatalf("truncated stream delivered %d items, want 1", n)
			}
		})
	}
}
