// Go client for the job platform's HTTP front door. Used by the resim CLI
// (`resim jobs ...`) and the Session.SubmitRemote job handle.
package jobd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/sweepd"
)

// Client talks to one job service.
type Client struct {
	// Server is the service base URL, e.g. "http://coordinator:8080".
	Server string
	// Token is the tenant's bearer token (empty in auth-disabled mode).
	Token string
	// HTTPClient overrides http.DefaultClient (tests inject the
	// httptest server's client).
	HTTPClient *http.Client
	// Retry, when configured, makes the unary API calls (Submit, Status,
	// List, Cancel) retry 429s and transient network errors with jittered
	// exponential backoff, honoring the server's Retry-After advice. The
	// zero value keeps the historical single-shot behavior. Streaming
	// calls never retry — reconnecting a half-consumed stream is the
	// caller's decision.
	Retry RetryPolicy
}

// RetryPolicy configures the client's retry loop.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per call; 0 or 1 disables
	// retries.
	MaxAttempts int
	// Base and Max bound the jittered exponential backoff between tries
	// (defaults 250ms and 5s). A 429 carrying Retry-After overrides the
	// computed delay with the server's advice.
	Base time.Duration
	Max  time.Duration
	// Seed seeds the backoff jitter (see faults.NewBackoff); retry
	// schedules are deterministic per (Seed, attempt).
	Seed int64
	// OnRetry, when non-nil, observes every scheduled retry.
	OnRetry func(attempt int, err error, delay time.Duration)
}

// StatusError is a non-2xx API response.
type StatusError struct {
	Code int
	Msg  string
	// RetryAfter is the server's Retry-After advice in seconds (0 when
	// the response carried none).
	RetryAfter int
}

// Error renders the status code and the server's error message.
func (e *StatusError) Error() string {
	return fmt.Sprintf("jobd: server returned %d: %s", e.Code, e.Msg)
}

// IsRetryable reports whether the request was refused by admission
// control (HTTP 429) and should be resubmitted after a backoff.
func (e *StatusError) IsRetryable() bool { return e.Code == http.StatusTooManyRequests }

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// do issues one API request and decodes a JSON response into out,
// retrying per c.Retry. Request bodies are marshaled once and replayed
// from memory on each attempt, so retrying a POST is safe at this layer;
// whether it is safe end-to-end is the policy's call (Submit retries only
// 429s and connection-refused, where the server provably did no work).
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var data []byte
	if body != nil {
		var err error
		data, err = json.Marshal(body)
		if err != nil {
			return err
		}
	}
	attempts := c.Retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	bo := faults.NewBackoff(c.Retry.Base, c.Retry.Max, c.Retry.Seed)
	if c.Retry.Base <= 0 {
		bo = faults.NewBackoff(250*time.Millisecond, 5*time.Second, c.Retry.Seed)
	}
	var lastErr error
	for attempt := 1; ; attempt++ {
		lastErr = c.doOnce(ctx, method, path, data, body != nil, out)
		if lastErr == nil || attempt >= attempts {
			return lastErr
		}
		delay, ok := retryDelay(lastErr, method, bo)
		if !ok {
			return lastErr
		}
		if f := c.Retry.OnRetry; f != nil {
			f(attempt, lastErr, delay)
		}
		t := time.NewTimer(delay)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
}

// newRequest builds an authenticated API request; a non-nil body is JSON.
func (c *Client) newRequest(ctx context.Context, method, path string, body io.Reader) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.Server+path, body)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	return req, nil
}

// doOnce issues a single attempt.
func (c *Client) doOnce(ctx context.Context, method, path string, data []byte, hasBody bool, out any) error {
	var rd io.Reader
	if hasBody {
		rd = bytes.NewReader(data)
	}
	req, err := c.newRequest(ctx, method, path, rd)
	if err != nil {
		return err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return apiError(resp)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// retryDelay classifies err and, when retryable for this method, returns
// the delay before the next attempt. 429s are always retryable — the
// server refused the work whole — and the server's Retry-After advice
// overrides the backoff. Connection-refused is always retryable (nothing
// reached the server). Other transport errors — resets, unexpected EOFs,
// timeouts — may have landed on the server, so they retry only for
// idempotent methods.
func retryDelay(err error, method string, bo *faults.Backoff) (time.Duration, bool) {
	var se *StatusError
	if errors.As(err, &se) {
		if !se.IsRetryable() {
			return 0, false
		}
		if se.RetryAfter > 0 {
			return time.Duration(se.RetryAfter) * time.Second, true
		}
		return bo.Next(), true
	}
	if errors.Is(err, syscall.ECONNREFUSED) {
		return bo.Next(), true
	}
	idempotent := method == http.MethodGet || method == http.MethodDelete || method == http.MethodHead
	if !idempotent {
		return 0, false
	}
	var ne net.Error
	switch {
	case errors.Is(err, syscall.ECONNRESET),
		errors.Is(err, io.ErrUnexpectedEOF),
		errors.Is(err, io.EOF),
		errors.As(err, &ne) && ne.Timeout():
		return bo.Next(), true
	}
	return 0, false
}

func apiError(resp *http.Response) error {
	var eb errorBody
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if json.Unmarshal(data, &eb) != nil || eb.Error == "" {
		eb.Error = string(bytes.TrimSpace(data))
	}
	ra, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
	return &StatusError{Code: resp.StatusCode, Msg: eb.Error, RetryAfter: ra}
}

// Submit submits a job, returning its acknowledged (durable) status.
func (c *Client) Submit(ctx context.Context, req SubmitRequest) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/jobs", req, &st)
	return st, err
}

// Status fetches a job's status with per-point progress.
func (c *Client) Status(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// List fetches the tenant's jobs, oldest first.
func (c *Client) List(ctx context.Context) ([]JobStatus, error) {
	var jobs []JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &jobs)
	return jobs, err
}

// Cancel cancels a job.
func (c *Client) Cancel(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Results follows the job's result stream, calling fn per completed point
// in completion order, and returns the job's terminal state (see
// readStream).
func (c *Client) Results(ctx context.Context, id string, fn func(*sweepd.WireResult) error) (State, error) {
	return readStream(ctx, c, resultStream, id, fn)
}

// Telemetry follows the job's telemetry stream, calling fn per interval
// snapshot from the oldest the server still buffers; Seq gaps within one
// point reveal snapshots the bounded buffer dropped.
func (c *Client) Telemetry(ctx context.Context, id string, fn func(core.IntervalSnapshot) error) (State, error) {
	return readStream(ctx, c, telemetryStream, id, fn)
}

// Trace follows the job's lifecycle-trace stream, calling fn per recorded
// span from the oldest the server still buffers; Seq gaps reveal evicted
// spans.
func (c *Client) Trace(ctx context.Context, id string, fn func(TraceSpan) error) (State, error) {
	return readStream(ctx, c, traceStream, id, fn)
}
