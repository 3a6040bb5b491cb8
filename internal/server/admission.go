package server

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// Admission control and deadline propagation (DESIGN.md §2.12). Every
// instrumented endpoint except the probes (/healthz, /metrics, /stats)
// sits behind a per-endpoint concurrency limiter: up to MaxInFlight
// requests execute, up to QueueDepth more wait for a slot, and anything
// beyond that is shed immediately with 429 and a Retry-After hint —
// the server degrades by refusing cheap-to-refuse work instead of
// collapsing under a convoy of slow requests. Per-endpoint (rather
// than one global gate) so a flood of bulk /ingest uploads cannot
// starve point queries of admission slots.
//
// Deadlines ride the request context: Options.Admission.DefaultDeadline
// applies to every admitted request, an X-Deadline-Ms header overrides
// it per request, and the handlers propagate the context into the
// engine's cancellable paths (ScoreBatchCtx, ObserveEdgesCtx) so an
// expired request stops consuming query workers and pipeline ring
// slots. A deadline that fires while the request is still queued for
// admission is shed with 429 (it never ran); one that fires while
// executing surfaces as 504.

// AdmissionConfig tunes overload shedding and default deadlines. The
// zero value disables both: no limiter, no server-assigned deadline.
type AdmissionConfig struct {
	// MaxInFlight caps concurrently executing requests per endpoint.
	// Zero or negative means unlimited (no limiter at all).
	MaxInFlight int
	// QueueDepth caps requests waiting for an admission slot beyond
	// MaxInFlight; arrivals past the queue are shed with 429. Zero
	// means the default (64). Ignored without MaxInFlight.
	QueueDepth int
	// DefaultDeadline is the server-assigned deadline for requests that
	// do not carry an X-Deadline-Ms header. Zero means none.
	DefaultDeadline time.Duration
	// RetryAfter is the hint attached to 429 and 503 responses. Zero
	// means 1s.
	RetryAfter time.Duration
}

const defaultQueueDepth = 64
const defaultRetryAfter = time.Second

// StatusClientClosedRequest is nginx's conventional status for a
// request abandoned by the client before the server finished it.
const StatusClientClosedRequest = 499

// admissionExempt endpoints bypass the limiter and default deadline:
// probes and metric scrapes must stay observable precisely when the
// serving endpoints are saturated.
var admissionExempt = map[string]bool{
	"healthz": true,
	"metrics": true,
	"stats":   true,
}

// shedCause is the outcome of an admission attempt.
type shedCause int

const (
	admitted      shedCause = iota
	shedQueueFull           // limiter and wait queue both full
	shedDeadline            // request deadline fired while queued
)

// limiter is one endpoint's admission gate: a buffered channel holding
// the execution slots plus an atomic counter bounding the wait queue.
type limiter struct {
	slots  chan struct{}
	depth  int64
	queued atomic.Int64
}

func newLimiter(cfg AdmissionConfig) *limiter {
	if cfg.MaxInFlight <= 0 {
		return nil
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = defaultQueueDepth
	}
	return &limiter{
		slots: make(chan struct{}, cfg.MaxInFlight),
		depth: int64(depth),
	}
}

// acquire takes an execution slot, waiting in the bounded queue if none
// is free. The caller must release() after the handler returns iff the
// result is admitted.
func (l *limiter) acquire(ctx context.Context) shedCause {
	select {
	case l.slots <- struct{}{}:
		return admitted
	default:
	}
	if l.queued.Add(1) > l.depth {
		l.queued.Add(-1)
		return shedQueueFull
	}
	defer l.queued.Add(-1)
	select {
	case l.slots <- struct{}{}:
		return admitted
	case <-ctx.Done():
		return shedDeadline
	}
}

func (l *limiter) release() { <-l.slots }

// inflight and waiting are lock-free gauges for /metrics.
func (l *limiter) inflight() int   { return len(l.slots) }
func (l *limiter) waiting() int64  { return l.queued.Load() }
func (l *limiter) capacity() int   { return cap(l.slots) }
func (l *limiter) queueCap() int64 { return l.depth }

// retryAfter stamps the configured Retry-After hint (whole seconds,
// rounded up) on a shed or unavailable response.
func (s *Server) retryAfter(w http.ResponseWriter) {
	d := s.opts.Admission.RetryAfter
	if d <= 0 {
		d = defaultRetryAfter
	}
	secs := int64((d + time.Second - 1) / time.Second)
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
}

// requestDeadline resolves the effective deadline for a request: the
// X-Deadline-Ms header when present and valid, the configured default
// otherwise. Zero means no deadline.
func (s *Server) requestDeadline(r *http.Request) time.Duration {
	if h := r.Header.Get("X-Deadline-Ms"); h != "" {
		if ms, err := strconv.ParseInt(h, 10, 64); err == nil && ms > 0 {
			return time.Duration(ms) * time.Millisecond
		}
	}
	return s.opts.Admission.DefaultDeadline
}

// cancelStatus maps a context error surfaced by an engine call to its
// HTTP status: 504 for a deadline that fired mid-request, 499 for a
// client that went away. Zero for anything else.
func cancelStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return StatusClientClosedRequest
	}
	return 0
}

// writeCancel reports a cancelled/expired request, counting it in the
// resilience metrics. extra (may be nil) carries endpoint-specific
// progress fields like the ingested count.
func (s *Server) writeCancel(w http.ResponseWriter, err error, extra map[string]any) {
	st := cancelStatus(err)
	if st == http.StatusGatewayTimeout {
		s.metrics.deadlineTimeouts.Add(1)
	} else {
		s.metrics.canceledRequests.Add(1)
	}
	resp := map[string]any{"error": err.Error()}
	for k, v := range extra {
		resp[k] = v
	}
	writeJSON(w, st, resp)
}

// resilienceGauges is the "resilience" block under "predictor" in
// /metrics: admission counters and gauges plus the WAL heal state.
func (s *Server) resilienceGauges() map[string]any {
	cfg := s.opts.Admission
	queueDepth := cfg.QueueDepth
	if cfg.MaxInFlight > 0 && queueDepth <= 0 {
		queueDepth = defaultQueueDepth
	}
	inflight, queued := 0, int64(0)
	for _, l := range s.admission {
		inflight += l.inflight()
		queued += l.waiting()
	}
	sqf := s.metrics.shedQueueFull.Load()
	sdl := s.metrics.shedDeadline.Load()
	g := map[string]any{
		"admission": map[string]any{
			"max_inflight":        cfg.MaxInFlight,
			"queue_depth":         queueDepth,
			"default_deadline_ms": cfg.DefaultDeadline.Milliseconds(),
			"inflight":            inflight,
			"queued":              queued,
			"shed":                sqf + sdl,
			"shed_queue_full":     sqf,
			"shed_deadline":       sdl,
			"deadline_timeouts":   s.metrics.deadlineTimeouts.Load(),
			"canceled":            s.metrics.canceledRequests.Load(),
		},
	}
	if s.opts.Durability != nil {
		hs := s.opts.Durability.WAL().HealState()
		ws := s.opts.Durability.WAL().Stats()
		heal := map[string]any{
			"enabled":          hs.Enabled,
			"degraded":         hs.Degraded,
			"attempts":         ws.HealAttempts,
			"heals":            ws.Heals,
			"quarantined":      ws.Quarantined,
			"degraded_seconds": ws.DegradedSecs,
			"episode_attempts": hs.Attempts,
		}
		if hs.Degraded {
			heal["reason"] = hs.Reason
			heal["degraded_for_seconds"] = time.Since(hs.Since).Seconds()
			if !hs.NextProbe.IsZero() {
				heal["next_probe_ms"] = time.Until(hs.NextProbe).Milliseconds()
			}
		}
		g["wal_heal"] = heal
	}
	return g
}
