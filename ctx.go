package linkpred

import (
	"context"
	"errors"

	"linkpred/internal/core"
)

// Context-aware serving surface (DESIGN.md §2.12). The Ctx methods are
// the one implementation of batched scoring, ranking and ingest on every
// engine; the plain ScoreBatch/TopK/ObserveEdges pass
// context.Background(), whose nil Done channel costs nothing. The HTTP
// server attaches per-request deadlines, and these methods propagate
// them into the store's batched hot paths as a done channel, so an
// expired or abandoned request stops consuming query workers and
// pipeline ring slots instead of running to completion.
//
// Cancellation granularity follows the core contract (core/cancel.go):
//
//   - ScoreBatchCtx / TopKCtx return ctx.Err() once the deadline fires
//     (the sharded stores check before each shard, the single-writer
//     stores once up front); partial scores are discarded.
//   - ObserveEdgesCtx cancels only BEFORE the batch is committed to
//     the store. Once ingestion has started the batch always completes
//     and nil is returned — a half-applied batch would desynchronize
//     the store from a durability layer's acked WAL prefix.

// ctxErrFrom maps the core package's cancellation sentinel back onto
// the context's own error (DeadlineExceeded vs Canceled) so callers
// can distinguish 504 from 499. If the store reported cancellation but
// the context is somehow still live, the sentinel is surfaced as-is.
func ctxErrFrom(ctx context.Context, err error) error {
	if errors.Is(err, core.ErrCanceled) {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
	}
	return err
}

// scoreBatch runs the store's batched query with ctx's done channel.
func (f *facade[S]) scoreBatch(ctx context.Context, qm core.QueryMeasure, u uint64, candidates []uint64, out []float64) ([]float64, error) {
	res, err := f.store.ScoreBatch(qm, u, candidates, out, ctx.Done())
	if err != nil {
		return nil, ctxErrFrom(ctx, err)
	}
	return res, nil
}

// ScoreBatchCtx is ScoreBatch with deadline propagation: workers stop
// claiming score chunks once ctx is done and the call returns ctx.Err().
func (f *facade[S]) ScoreBatchCtx(ctx context.Context, m Measure, u uint64, candidates []uint64) ([]float64, error) {
	qm, err := queryMeasure(m)
	if err != nil {
		return nil, err
	}
	return f.scoreBatch(ctx, qm, u, candidates, nil)
}

// TopKCtx is TopK with deadline propagation through the batched
// scoring pass; selection itself is O(N log k) and not cancellable.
func (f *facade[S]) TopKCtx(ctx context.Context, m Measure, u uint64, candidates []uint64, k int) ([]Candidate, error) {
	qm, err := queryMeasure(m)
	if err != nil {
		return nil, err
	}
	return topKBatch(u, candidates, k, func(dedup []uint64, scores []float64) ([]float64, error) {
		return f.scoreBatch(ctx, qm, u, dedup, scores)
	})
}

// ObserveEdgesCtx is ObserveEdges with pre-commit cancellation: if ctx
// is done before the batch is handed to the store (including while the
// pipeline producer waits on a full ring), nothing is applied and
// ctx.Err() is returned; once ingestion starts the batch completes and
// nil is returned.
func (f *facade[S]) ObserveEdgesCtx(ctx context.Context, edges []Edge) error {
	buf := toStreamEdges(edges)
	defer putStreamEdges(buf)
	return ctxErrFrom(ctx, f.store.IngestBatch(*buf, ctx.Done()))
}

// ScoreBatchCtx scores a batch under one read lock acquisition,
// propagating the request deadline into the wrapped engine.
func (s *Synchronized) ScoreBatchCtx(ctx context.Context, m Measure, u uint64, candidates []uint64) ([]float64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.inner.ScoreBatchCtx(ctx, m, u, candidates)
}

// TopKCtx ranks a batch under one read lock acquisition, propagating
// the request deadline into the wrapped engine.
func (s *Synchronized) TopKCtx(ctx context.Context, m Measure, u uint64, candidates []uint64, k int) ([]Candidate, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.inner.TopKCtx(ctx, m, u, candidates, k)
}

// ObserveEdgesCtx folds a batch under the write lock with pre-commit
// cancellation. The ctx check runs after lock acquisition, so a request
// that expired while queued behind a writer is rejected before it
// mutates anything.
func (s *Synchronized) ObserveEdgesCtx(ctx context.Context, edges []Edge) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.ObserveEdgesCtx(ctx, edges)
}
