// Job streams. A job publishes three streams — completed results, live
// telemetry windows and lifecycle spans — and all three are instances of
// one primitive: a sequence-numbered log appended under the platform lock
// (seqLog), one catch-up-then-follow reader loop (follow), one NDJSON
// handler (serveStream) and one client decoder (readStream). A reader
// attaching mid-job first replays what the log still holds, then follows
// live until the job is terminal. A bounded log evicts its oldest entries;
// a reader that falls behind an eviction resumes at the oldest retained
// entry and the gap is counted per stream, never applied as backpressure
// to the engines or to other readers.
//
// The wire framing is the same for every stream: one {"<key>":<item>} line
// per entry, flushed as it lands, then a {"done":true,"state":…,"err":…}
// trailer (err omitted when empty). A stream that ends without its trailer
// (client gone, platform closing) tells the client it must reconnect.
package jobd

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/sweepd"
)

// seqLog is a sequence-numbered log bounded to its newest max entries
// (max 0 = unbounded). The n-th entry ever appended has sequence number n-1;
// end is one past the newest. Guarded by the platform mutex.
type seqLog[T any] struct {
	items []T
	end   uint64
	max   int
}

// start returns the sequence number of the oldest retained entry.
func (l *seqLog[T]) start() uint64 { return l.end - uint64(len(l.items)) }

// append adds v, evicting the oldest entries past max, and reports how
// many it evicted.
func (l *seqLog[T]) append(v T) int {
	l.items = append(l.items, v)
	l.end++
	over := len(l.items) - l.max
	if l.max <= 0 || over <= 0 {
		return 0
	}
	l.items = append(l.items[:0], l.items[over:]...)
	return over
}

// since returns a copy of the entries from sequence number next on, the
// cursor past them, and how many entries from next on the log evicted
// before this read (the reader missed them).
func (l *seqLog[T]) since(next uint64) (batch []T, cursor, missed uint64) {
	start := l.start()
	if next < start {
		missed, next = start-next, start
	}
	return append([]T(nil), l.items[next-start:]...), l.end, missed
}

// stream names one of a job's logs and its wire framing.
type stream[T any] struct {
	path string // served at GET /v1/jobs/{id}/<path>
	key  string // item lines are {"<key>":item}
	log  func(*job) *seqLog[T]
}

// The job streams. Results are unbounded (every completed point, in
// completion order); telemetry and spans are bounded by
// Options.TelemetryRing and Options.TraceSpans.
var (
	resultStream = stream[*sweepd.WireResult]{"results", "result",
		func(j *job) *seqLog[*sweepd.WireResult] { return &j.resultLog }}
	telemetryStream = stream[core.IntervalSnapshot]{"telemetry", "telemetry",
		func(j *job) *seqLog[core.IntervalSnapshot] { return &j.telemetry }}
	traceStream = stream[TraceSpan]{"trace", "span",
		func(j *job) *seqLog[TraceSpan] { return &j.spans }}
)

// follow calls fn for every entry of the job's stream s, from the oldest
// still retained, blocking for new entries until the job reaches a
// terminal state (which it returns with the job's error string). fn runs
// without the platform lock; its error aborts the stream. The reader is
// counted in the stream's watchers while attached, and entries evicted
// before it read them in the stream's missed count.
func follow[T any](ctx context.Context, p *Platform, s stream[T], tenant, id string, fn func(T) error) (State, string, error) {
	p.mu.Lock()
	j := p.lookupLocked(tenant, id)
	if j == nil {
		p.mu.Unlock()
		return "", "", ErrUnknownJob
	}
	// Subscribe at the oldest retained entry: history evicted before the
	// reader attached was never available to it and is not a miss.
	log := s.log(j)
	next := log.start()
	p.watchers[s.path]++
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.watchers[s.path]--
		p.mu.Unlock()
	}()
	for {
		p.mu.Lock()
		batch, cursor, missed := log.since(next)
		next = cursor
		p.missed[s.path] += missed
		state, errStr, change := j.state, j.err, j.change
		p.mu.Unlock()
		for _, v := range batch {
			if err := fn(v); err != nil {
				return state, errStr, err
			}
		}
		// state and the log were snapshotted under one lock, and nothing
		// appends to a terminal job's streams: the batch above was the last.
		if state.Terminal() {
			return state, errStr, nil
		}
		select {
		case <-ctx.Done():
			return state, errStr, ctx.Err()
		case <-p.ctx.Done():
			return state, errStr, ErrClosed
		case <-change:
		}
	}
}

// streamEnd is the trailer line of every job stream.
type streamEnd struct {
	Done  bool   `json:"done"`
	State State  `json:"state"`
	Err   string `json:"err,omitempty"`
}

// serveStream is the NDJSON handler of stream s: item lines flushed as
// they land, then the trailer; an unknown job is a JSON 404.
func serveStream[T any](p *Platform, s stream[T]) func(http.ResponseWriter, *http.Request, string) {
	return func(w http.ResponseWriter, r *http.Request, tenant string) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		rc := http.NewResponseController(w)
		enc := json.NewEncoder(w)
		state, errStr, err := follow(r.Context(), p, s, tenant, r.PathValue("id"), func(v T) error {
			if err := enc.Encode(map[string]*T{s.key: &v}); err != nil {
				return err
			}
			return rc.Flush()
		})
		if err != nil {
			// Only a lookup failure precedes the first line; any later
			// failure just ends the stream without its trailer.
			if errors.Is(err, ErrUnknownJob) {
				writePlatformError(w, err)
			}
			return
		}
		enc.Encode(streamEnd{Done: true, State: state, Err: errStr})
		rc.Flush()
	}
}

// readStream follows the job's NDJSON stream s, calling fn per item, and
// returns the job's terminal state. It blocks until the job finishes
// (cancel via ctx). A stream that ends without the trailer reports an
// error — the caller cannot know the job finished.
func readStream[T any](ctx context.Context, c *Client, s stream[T], id string, fn func(T) error) (State, error) {
	req, err := c.newRequest(ctx, http.MethodGet, "/v1/jobs/"+id+"/"+s.path, nil)
	if err != nil {
		return "", err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return "", apiError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		// Item lines decode in one pass; only the trailer, whose values do
		// not fit T, takes a second. The server never sends a null item.
		var item map[string]*T
		err := json.Unmarshal(sc.Bytes(), &item)
		if v, ok := item[s.key]; ok {
			if err == nil && v == nil {
				err = errors.New("null item")
			}
			if err != nil {
				return "", fmt.Errorf("jobd: corrupt stream line: %w", err)
			}
			if fn != nil {
				if err := fn(*v); err != nil {
					return "", err
				}
			}
			continue
		}
		var end streamEnd
		if err := json.Unmarshal(sc.Bytes(), &end); err != nil {
			return "", fmt.Errorf("jobd: corrupt stream line: %w", err)
		}
		if !end.Done {
			continue
		}
		if !end.State.Terminal() {
			return "", fmt.Errorf("jobd: %s stream for %s ended in non-terminal state %q", s.path, id, end.State)
		}
		// A failure reason is an error; a cancellation note is just color
		// on a state the caller inspects anyway.
		if end.State == StateFailed && end.Err != "" {
			return end.State, fmt.Errorf("jobd: job %s failed: %s", id, end.Err)
		}
		return end.State, nil
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("jobd: %s stream for %s ended without a terminal line", s.path, id)
}
