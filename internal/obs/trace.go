package obs

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/hex"
	"math/rand/v2"
)

// Trace IDs tie one request's slog lines together across layers: the HTTP
// access log, the engine's slow-op log, and the WAL fsync ack all carry the
// same ID, so `grep <id>` reconstructs an insert's full path from ingress
// to durability.

// TraceHeader is the HTTP header that carries a trace ID: into the daemon
// from a client, back out in every response, and from a cluster router to
// the shards it forwards to.
const TraceHeader = "X-Indep-Trace"

type traceKeyType struct{}

var traceKey traceKeyType

// NewTraceID returns a fresh 16-hex-character request ID. Crypto randomness
// when available, falling back to the runtime's fast source — trace IDs
// need uniqueness, not unpredictability.
func NewTraceID() string {
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		u := rand.Uint64()
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
	}
	return hex.EncodeToString(b[:])
}

// ValidTraceID reports whether id is a well-formed trace ID: exactly 16
// lowercase hex characters, the shape NewTraceID mints. The HTTP middleware
// accepts only valid client-supplied IDs (after ASCII-lowercasing), so
// hostile or sloppy clients cannot inject unbounded-cardinality junk into
// the access log and the flight recorder.
func ValidTraceID(id string) bool {
	if len(id) != 16 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return false
		}
	}
	return true
}

// WithTrace returns a context carrying the trace ID.
func WithTrace(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, traceKey, id)
}

// Trace returns the context's trace ID, or "" when none was attached.
func Trace(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(traceKey).(string)
	return id
}
