// Package dtrace is distributed tracing for the render-farm serving
// stack: a W3C-traceparent-style context (trace ID, span ID, sampled
// flag) minted when pimfarm accepts a submission, carried through
// admission, the farm and the dist lease protocol into the
// worker, and assembled back into one causally ordered per-job timeline.
//
// The tracer in internal/obs is the simulator's cycle-domain recorder:
// its spans are GPU cycles of one frame. This package is the one
// wall-clock recorder: its spans are microseconds of real time, and they
// survive process boundaries. It deliberately reuses the same Chrome
// trace-event JSON export (obs.ChromeEvent) so a per-job timeline opens
// in the same viewers as a `pimsim -tracefile` dump, with a "schema" top
// level key (ignored by the viewers) so tooling can sniff the artifact.
//
// Tracing is observational-only: contexts never enter core.CacheKey,
// recorded spans are bounded per job, and an unsampled context records
// nothing anywhere — results are byte-identical with tracing on or off.
package dtrace

import (
	"context"
	"fmt"
	"hash/fnv"
	"strings"
	"sync/atomic"
	"time"
)

// Context is one propagated trace context. The wire form is the W3C
// traceparent layout: "00-<32 hex trace id>-<16 hex span id>-<2 hex
// flags>", flags bit 0 = sampled.
type Context struct {
	// TraceID identifies the whole request tree (32 lowercase hex chars).
	TraceID string
	// SpanID identifies the minting hop (16 lowercase hex chars).
	SpanID string
	// Sampled is the recording decision, made once at mint time and
	// honored by every hop: unsampled contexts record zero spans.
	Sampled bool
}

// Valid reports whether the context has well-formed IDs.
func (c Context) Valid() bool {
	return isHex(c.TraceID, 32) && isHex(c.SpanID, 16) &&
		c.TraceID != strings.Repeat("0", 32) && c.SpanID != strings.Repeat("0", 16)
}

// String renders the traceparent wire form ("" for an invalid context).
func (c Context) String() string {
	if !c.Valid() {
		return ""
	}
	flags := "00"
	if c.Sampled {
		flags = "01"
	}
	return "00-" + c.TraceID + "-" + c.SpanID + "-" + flags
}

// Parse decodes a traceparent string. ok is false for anything
// malformed — callers treat that as "no trace context".
func Parse(s string) (Context, bool) {
	parts := strings.Split(s, "-")
	if len(parts) != 4 || parts[0] != "00" || !isHex(parts[3], 2) {
		return Context{}, false
	}
	c := Context{TraceID: parts[1], SpanID: parts[2], Sampled: parts[3] == "01"}
	if !c.Valid() {
		return Context{}, false
	}
	return c, true
}

func isHex(s string, n int) bool {
	if len(s) != n {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// mintSeq makes every minted trace ID process-unique even for identical
// seeds (a client may reuse an X-Request-ID across retries; each retry
// is its own trace, correlated through the request_id span attribute).
var mintSeq atomic.Uint64

// Mint creates a root context. seed is the sanitized request ID (or any
// origin tag) so trace IDs are operator-correlatable; uniqueness comes
// from a process nonce, not the seed. sample in [0,1] is the fraction of
// traces recorded: the decision hashes the trace ID, so every hop that
// re-derives it agrees, and sample<=0 yields an unsampled context that
// records nothing.
func Mint(seed string, sample float64) Context {
	n := mintSeq.Add(1)
	c := Context{
		TraceID: hex64(seed, n, 0x74726163) + hex64(seed, n, 0x65696478),
		SpanID:  hex64(seed, n, 0x7370616e),
	}
	c.Sampled = sampled(c.TraceID, sample)
	return c
}

// sampled is the deterministic sampling decision for a trace ID.
func sampled(traceID string, sample float64) bool {
	if sample >= 1 {
		return true
	}
	if sample <= 0 {
		return false
	}
	h := fnv.New64a()
	h.Write([]byte(traceID))
	frac := float64(h.Sum64()%1_000_000) / 1_000_000
	return frac < sample
}

// hex64 derives one 16-hex-char half from the seed, the mint counter, a
// salt, and the wall clock (so restarts do not repeat IDs).
func hex64(seed string, n uint64, salt uint64) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%d|%d", seed, n, salt, time.Now().UnixNano())
	v := h.Sum64()
	if v == 0 {
		v = 1
	}
	return fmt.Sprintf("%016x", v)
}

// recorderKey carries a *Recorder in a context (the worker attaches one
// to the execution context; exec code records spans into it without any
// signature changes along the way).
type recorderKey struct{}

// WithRecorder returns ctx carrying rec.
func WithRecorder(ctx context.Context, rec *Recorder) context.Context {
	return context.WithValue(ctx, recorderKey{}, rec)
}

// RecorderFrom returns the recorder carried by ctx, or nil (every
// Recorder method is nil-safe, so callers need no guard).
func RecorderFrom(ctx context.Context) *Recorder {
	rec, _ := ctx.Value(recorderKey{}).(*Recorder)
	return rec
}
