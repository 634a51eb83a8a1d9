// Structured logging for the service stack. Every layer (coordinator,
// workers, job platform) takes a Log *Logger and reports events through
// Event(name, key, value, ...): the event name becomes the record's message
// and the pairs its typed attributes, so `resimd -log-format json` emits
// numbers as numbers. A nil *Logger discards, so wiring is optional at
// every layer.
package obs

import (
	"fmt"
	"io"
	"log/slog"
)

// Logger wraps a slog.Logger. A nil *Logger discards everything.
type Logger struct {
	s *slog.Logger
}

// NewLogger builds a Logger writing to w in the given format: "text"
// (logfmt-style, the default for terminals) or "json" (one JSON object per
// line, for log pipelines).
func NewLogger(w io.Writer, format string) (*Logger, error) {
	var h slog.Handler
	switch format {
	case "", "text":
		h = slog.NewTextHandler(w, nil)
	case "json":
		h = slog.NewJSONHandler(w, nil)
	default:
		return nil, fmt.Errorf("obs: unknown log format %q (want text or json)", format)
	}
	return &Logger{s: slog.New(h)}, nil
}

// NewSlogLogger wraps an existing slog.Logger (tests inject recording
// handlers).
func NewSlogLogger(s *slog.Logger) *Logger { return &Logger{s: s} }

// Component returns a derived logger stamping every record with
// component=name — one per service layer (jobd, sweepd, worker, resimd).
func (l *Logger) Component(name string) *Logger {
	if l == nil {
		return nil
	}
	return &Logger{s: l.s.With("component", name)}
}

// Event logs one structured event at info level.
func (l *Logger) Event(event string, kvs ...any) {
	if l == nil {
		return
	}
	l.s.Info(event, kvs...)
}

// Warn logs one structured event at warning level.
func (l *Logger) Warn(event string, kvs ...any) {
	if l == nil {
		return
	}
	l.s.Warn(event, kvs...)
}
