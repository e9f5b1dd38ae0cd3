package obs

import (
	"context"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Level is a log severity. The default level is Warn so library code stays
// quiet in tests; binaries raise it with SetDefaultLevel or -log-level.
type Level int32

// Levels, least to most severe. Off disables a component entirely.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
	LevelOff
)

// String renders the level.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "DEBUG"
	case LevelInfo:
		return "INFO"
	case LevelWarn:
		return "WARN"
	case LevelError:
		return "ERROR"
	case LevelOff:
		return "OFF"
	default:
		return fmt.Sprintf("LEVEL(%d)", int(l))
	}
}

// ParseLevel reads a level name (case-insensitive).
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return LevelDebug, nil
	case "info":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	case "off", "none":
		return LevelOff, nil
	default:
		return LevelWarn, fmt.Errorf("obs: unknown log level %q (want debug|info|warn|error|off)", s)
	}
}

var (
	logMu   sync.Mutex // serialises writes to logOut and updates of loggers
	logOut  io.Writer  = os.Stderr
	loggers            = map[string]*Logger{}
	// logLevel is the level Enabled consults on every log call.
	logLevel atomic.Int32
)

func init() { logLevel.Store(int32(LevelWarn)) }

// SetDefaultLevel sets the level every component logs at.
func SetDefaultLevel(l Level) { logLevel.Store(int32(l)) }

// Logger emits structured events for one component.
type Logger struct{ component string }

// L returns the logger for a component, creating it on first use.
func L(component string) *Logger {
	logMu.Lock()
	defer logMu.Unlock()
	if l, ok := loggers[component]; ok {
		return l
	}
	l := &Logger{component: component}
	loggers[component] = l
	return l
}

// Enabled reports whether events at lvl would be written.
func (l *Logger) Enabled(lvl Level) bool {
	min := Level(logLevel.Load())
	return lvl >= min && min != LevelOff
}

// Log writes one structured event line:
//
//	2026-08-05T09:00:00.000Z INFO soap.server classifyInstance trace=4bf9… service=Classifier dur_ms=12.3
//
// kv are alternating key, value pairs; a float64 value is a measurement
// and is written to one decimal place, so callers pass the number and pay
// for formatting only when the line is written. The trace context in ctx
// (if any) is appended automatically so one grep by trace ID crosses
// components.
func (l *Logger) Log(ctx context.Context, lvl Level, event string, kv ...any) {
	if !l.Enabled(lvl) {
		return
	}
	var b strings.Builder
	b.WriteString(time.Now().UTC().Format("2006-01-02T15:04:05.000Z"))
	fmt.Fprintf(&b, " %-5s %s %s", lvl, l.component, event)
	if tc, ok := TraceFrom(ctx); ok {
		fmt.Fprintf(&b, " trace=%s span=%s", tc.TraceID, tc.SpanID)
	}
	for i := 0; i+1 < len(kv); i += 2 {
		var val string
		if f, ok := kv[i+1].(float64); ok {
			val = strconv.FormatFloat(f, 'f', 1, 64)
		} else {
			val = fmt.Sprint(kv[i+1])
		}
		if strings.ContainsAny(val, " \t\n\"") {
			val = fmt.Sprintf("%q", val)
		}
		fmt.Fprintf(&b, " %v=%s", kv[i], val)
	}
	b.WriteByte('\n')
	logMu.Lock()
	defer logMu.Unlock()
	_, _ = io.WriteString(logOut, b.String())
}

// Debug logs at debug level.
func (l *Logger) Debug(ctx context.Context, event string, kv ...any) {
	l.Log(ctx, LevelDebug, event, kv...)
}

// Info logs at info level.
func (l *Logger) Info(ctx context.Context, event string, kv ...any) {
	l.Log(ctx, LevelInfo, event, kv...)
}

// Warn logs at warn level.
func (l *Logger) Warn(ctx context.Context, event string, kv ...any) {
	l.Log(ctx, LevelWarn, event, kv...)
}

// Error logs at error level.
func (l *Logger) Error(ctx context.Context, event string, kv ...any) {
	l.Log(ctx, LevelError, event, kv...)
}
