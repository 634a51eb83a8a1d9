package obs

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

func TestLoggerJSONTypedAttrs(t *testing.T) {
	var b strings.Builder
	lg, err := NewLogger(&b, "json")
	if err != nil {
		t.Fatal(err)
	}
	lg.Component("jobd").Event("jobd.job_submitted", "job", "j01", "points", 4,
		"err", errors.New("boom: worker died"))
	var rec map[string]any
	if err := json.Unmarshal([]byte(b.String()), &rec); err != nil {
		t.Fatalf("not one JSON record: %v\n%s", err, b.String())
	}
	if rec["msg"] != "jobd.job_submitted" {
		t.Errorf("msg = %v, want event name", rec["msg"])
	}
	if rec["component"] != "jobd" {
		t.Errorf("component = %v", rec["component"])
	}
	if rec["job"] != "j01" || rec["points"] != float64(4) {
		t.Errorf("attrs not typed: %v", rec)
	}
	if rec["err"] != "boom: worker died" {
		t.Errorf("error value = %q, want its message", rec["err"])
	}
}

func TestLoggerTextFallback(t *testing.T) {
	// The empty format falls back to text.
	var b strings.Builder
	lg, err := NewLogger(&b, "")
	if err != nil {
		t.Fatal(err)
	}
	lg.Event("sweepd.worker_gone", "worker", "w1", "err", "read tcp: connection reset")
	if !strings.Contains(b.String(), `msg=sweepd.worker_gone worker=w1 err="read tcp: connection reset"`) {
		t.Errorf("text record = %s", b.String())
	}
}

func TestNewLoggerUnknownFormat(t *testing.T) {
	if _, err := NewLogger(&strings.Builder{}, "yaml"); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestNilLogger(t *testing.T) {
	var lg *Logger
	lg.Event("e", "k", "v")
	lg.Warn("w")
	if lg.Component("c") != nil {
		t.Error("derived loggers from nil should stay nil")
	}
}
