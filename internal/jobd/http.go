// HTTP/JSON front door for the job platform. Deliberately plain net/http:
// bearer-token tenant auth, JSON request/response bodies, NDJSON job
// streams (stream.go), and a Prometheus-style text /metrics. The route set:
//
//	POST   /v1/jobs                submit (201; 400/401/429 on rejection)
//	GET    /v1/jobs                list the tenant's jobs
//	GET    /v1/jobs/{id}           status + per-point progress
//	GET    /v1/jobs/{id}/results   stream results as NDJSON until terminal
//	GET    /v1/jobs/{id}/telemetry stream live interval snapshots as NDJSON
//	GET    /v1/jobs/{id}/trace     stream lifecycle spans as NDJSON
//	DELETE /v1/jobs/{id}           cancel
//	GET    /healthz                liveness (no auth)
//	GET    /metrics                obs registry, Prometheus text (no auth)
package jobd

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
)

// maxSubmitBytes bounds one submission body; a thousand-point sweep is
// well under a megabyte of specs, so 64 MiB rejects only abuse.
const maxSubmitBytes = 64 << 20

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// Handler returns the platform's HTTP front door.
func (p *Platform) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", p.handleHealthz)
	mux.HandleFunc("GET /metrics", p.handleMetrics)
	mux.HandleFunc("POST /v1/jobs", p.withTenant(p.handleSubmit))
	mux.HandleFunc("GET /v1/jobs", p.withTenant(p.handleList))
	mux.HandleFunc("GET /v1/jobs/{id}", p.withTenant(p.handleStatus))
	mux.HandleFunc("GET /v1/jobs/{id}/"+resultStream.path, p.withTenant(serveStream(p, resultStream)))
	mux.HandleFunc("GET /v1/jobs/{id}/"+telemetryStream.path, p.withTenant(serveStream(p, telemetryStream)))
	mux.HandleFunc("GET /v1/jobs/{id}/"+traceStream.path, p.withTenant(serveStream(p, traceStream)))
	mux.HandleFunc("DELETE /v1/jobs/{id}", p.withTenant(p.handleCancel))
	return mux
}

// withTenant authenticates the request's bearer token to a tenant name.
func (p *Platform) withTenant(h func(http.ResponseWriter, *http.Request, string)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		token := ""
		if auth := r.Header.Get("Authorization"); auth != "" {
			var ok bool
			token, ok = strings.CutPrefix(auth, "Bearer ")
			if !ok {
				writeError(w, http.StatusUnauthorized, "jobd: Authorization header is not a bearer token")
				return
			}
		}
		tenant, ok := p.TenantForToken(token)
		if !ok {
			writeError(w, http.StatusUnauthorized, "jobd: unknown token")
			return
		}
		h(w, r, tenant)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorBody{Error: msg})
}

// writePlatformError maps platform errors onto HTTP statuses.
func writePlatformError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrTenantBusy):
		// Admission control: the work was refused whole, not dropped —
		// back off and resubmit. The platform derives the advice from
		// live queue/tenant state (RetryAfterError); 1s is only the
		// fallback for rejections that carry none.
		secs := 1
		var ra *RetryAfterError
		if errors.As(err, &ra) && ra.Seconds > 0 {
			secs = ra.Seconds
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, ErrUnknownJob):
		writeError(w, http.StatusNotFound, err.Error())
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err.Error())
	default:
		writeError(w, http.StatusBadRequest, err.Error())
	}
}

func (p *Platform) handleSubmit(w http.ResponseWriter, r *http.Request, tenant string) {
	// Injection point for the chaos suite's 429 storm: a deterministic
	// schedule refuses the first N submissions the way a saturated
	// platform would, exercising the client's Retry-After handling.
	if err := p.opts.Faults.At(faultHTTPSubmit); err != nil {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "jobd: injected overload: "+err.Error())
		return
	}
	var req SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "jobd: decode submission: "+err.Error())
		return
	}
	st, err := p.Submit(tenant, req)
	if err != nil {
		writePlatformError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, st)
}

func (p *Platform) handleList(w http.ResponseWriter, r *http.Request, tenant string) {
	jobs := p.List(tenant)
	if jobs == nil {
		jobs = []JobStatus{}
	}
	writeJSON(w, http.StatusOK, jobs)
}

func (p *Platform) handleStatus(w http.ResponseWriter, r *http.Request, tenant string) {
	st, err := p.Status(tenant, r.PathValue("id"))
	if err != nil {
		writePlatformError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (p *Platform) handleCancel(w http.ResponseWriter, r *http.Request, tenant string) {
	st, err := p.Cancel(tenant, r.PathValue("id"))
	if err != nil {
		writePlatformError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (p *Platform) handleHealthz(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	if closed {
		writeError(w, http.StatusServiceUnavailable, ErrClosed.Error())
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleMetrics renders the platform's obs registry in the Prometheus
// text exposition format. One consistent Platform.Snapshot is applied to
// the snapshot-backed families first, so every jobd series a single scrape
// returns describes the same instant; the event-site histograms and any
// other layers sharing the registry (sweepd, tracecache via
// Options.Metrics) render from their own live state.
func (p *Platform) handleMetrics(w http.ResponseWriter, r *http.Request) {
	p.metrics.apply(p.Snapshot())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p.reg.WritePrometheus(w) //nolint:errcheck // client gone mid-scrape
}

// LoadTenants reads a {"tenants":[...]} JSON file.
func LoadTenants(path string) ([]Tenant, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f struct {
		Tenants []Tenant `json:"tenants"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("jobd: parse tenants file %s: %w", path, err)
	}
	if len(f.Tenants) == 0 {
		return nil, fmt.Errorf("jobd: tenants file %s defines no tenants", path)
	}
	for _, t := range f.Tenants {
		if t.Name == "" || t.Token == "" {
			return nil, fmt.Errorf("jobd: tenants file %s: every tenant needs a name and a token", path)
		}
	}
	return f.Tenants, nil
}
