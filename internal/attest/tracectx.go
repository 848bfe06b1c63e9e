package attest

import (
	"context"

	"pufatt/internal/telemetry"
)

// Cross-layer trace stitching: a caller that opened its own span around an
// attestation session (the cluster tier's route/queue/replication shell)
// passes the span's TraceContext down through the context, and the session
// span joins that trace instead of minting a fresh one — so /debug/traces
// shows one tree attributing the whole distributed round trip.

// traceParentKey is the context key for the session's trace parent.
type traceParentKey struct{}

// WithTraceParent returns a context under which attestation sessions, on
// either transport, open their session span inside tc's trace, as a child
// of tc.Span.
// An invalid tc is carried but ignored at span-open time.
func WithTraceParent(ctx context.Context, tc telemetry.TraceContext) context.Context {
	return context.WithValue(ctx, traceParentKey{}, tc)
}

// TraceParent reports the trace parent carried by ctx, if any is set and
// valid.
func TraceParent(ctx context.Context) (telemetry.TraceContext, bool) {
	tc, ok := ctx.Value(traceParentKey{}).(telemetry.TraceContext)
	return tc, ok && tc.Valid()
}
