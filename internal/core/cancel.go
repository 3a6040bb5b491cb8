package core

import "errors"

// Cooperative cancellation for the batched hot paths (DESIGN.md §2.12).
// Every store's two batched entry points, ScoreBatch and IngestBatch,
// take a done channel: the server's request deadlines surface here as
// that channel, the core package stays free of context plumbing, and a
// nil done means "never cancelled" at zero cost.
//
// Granularity is deliberate, not best-effort:
//
//   - Queries (ScoreBatch) on the sharded stores cancel at shard
//     granularity: workers stop claiming shards once done fires,
//     in-flight shards finish under their RLock, and the call reports
//     ErrCanceled with the output unspecified. The single-writer stores
//     poll done once, before scoring starts.
//   - Ingest (IngestBatch) cancels only BEFORE the batch is handed to
//     the store. Once the pipeline has enqueued the batch to any shard
//     owner — or the synchronous path has started applying — it always
//     completes: a half-applied batch would desynchronize the store from
//     the WAL's acked prefix, which the durability layer's
//     log-before-apply contract forbids. The spin loop a producer runs
//     against a full ring polls done while nothing is enqueued yet, so
//     an expired request stops burning CPU on backpressure instead of
//     spinning to delivery. The single-writer stores poll done once, up
//     front.

// ErrCanceled is returned by ScoreBatch and IngestBatch when done fired
// before the operation committed. For queries the output is
// unspecified; for ingest, nothing was applied.
var ErrCanceled = errors.New("core: operation canceled")

// canceled polls a done channel without blocking; nil never cancels.
func canceled(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}
