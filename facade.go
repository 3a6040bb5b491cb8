package linkpred

import (
	"context"
	"fmt"
	"io"

	"linkpred/internal/core"
	"linkpred/internal/hashing"
	"linkpred/internal/stream"
)

// facade is the shared engine core behind every public predictor type.
// Predictor, Concurrent, Directed, ConcurrentDirected, and Windowed all
// embed a facade instantiated with their concrete store; measure
// dispatch, Score/ScoreBatch/TopK, the stats gauges, and persistence
// live here once instead of once per facade. The public types add only
// what is genuinely theirs: constructors, capability methods (shard
// counts, window introspection, directed side-degrees), and the
// ablation surface (biased sketches, triangles, LSH).
//
// The store's own thread-safety contract carries through unchanged:
// facades over sharded stores are safe for concurrent use, facades over
// single-writer stores are not (wrap in Synchronized or serialize
// externally).
type facade[S core.Store] struct {
	store S
	cfg   Config
}

// coreConfig maps the public Config onto the core store configuration.
// Callers zero fields their mode does not support before constructing
// the store (e.g. sharded modes drop TrackTriangles).
func coreConfig(cfg Config) core.Config {
	kind := hashing.KindMixed
	if cfg.TabulationHashing {
		kind = hashing.KindTabulation
	}
	degrees := core.DegreeArrivals
	if cfg.DistinctDegrees {
		degrees = core.DegreeDistinctKMV
	}
	cc := core.Config{
		K:              cfg.K,
		Seed:           cfg.Seed,
		Hash:           kind,
		Degrees:        degrees,
		EnableBiased:   cfg.EnableBiased,
		TrackTriangles: cfg.TrackTriangles,
	}
	for i, t := range cfg.Tiers {
		cc.Tiers[i] = core.Tier{K: t.K, PromoteAt: t.PromoteAt}
	}
	return cc
}

// configFromCore inverts coreConfig for the Load* constructors: the
// public Config is re-derived from the loaded store's image.
func configFromCore(cc core.Config) Config {
	cfg := Config{
		K:                 cc.K,
		Seed:              cc.Seed,
		TabulationHashing: cc.Hash == hashing.KindTabulation,
		DistinctDegrees:   cc.Degrees == core.DegreeDistinctKMV,
		EnableBiased:      cc.EnableBiased,
		TrackTriangles:    cc.TrackTriangles,
	}
	for i, t := range cc.Tiers {
		cfg.Tiers[i] = Tier{K: t.K, PromoteAt: t.PromoteAt}
	}
	return cfg
}

// Config returns the configuration the predictor was built with.
func (f *facade[S]) Config() Config { return f.cfg }

// ObserveEdge folds a timestamped edge (arc, on directed predictors)
// into the sketches.
func (f *facade[S]) ObserveEdge(e Edge) {
	f.store.Ingest(stream.Edge{U: e.U, V: e.V, T: e.T})
}

// ObserveEdges folds a batch of edges into the sketches, equivalent to
// calling ObserveEdge on each in order. On sharded stores the batch
// path hashes each distinct endpoint once outside any lock and takes
// each shard lock once per batch, making this much faster than per-edge
// calls; single-writer stores gain API symmetry. The resulting sketches
// are register-identical to per-edge ingest of the same edges (MinHash
// register updates are pointwise minima, which commute and are
// idempotent).
func (f *facade[S]) ObserveEdges(edges []Edge) {
	_ = f.ObserveEdgesCtx(context.Background(), edges) // Background never cancels: no error
}

// Jaccard returns the estimated Jaccard coefficient of (u, v) in
// [0, 1] — |N_out(u) ∩ N_in(v)| / |N_out(u) ∪ N_in(v)| for the
// candidate arc u → v on directed predictors. Pairs involving
// never-observed vertices score 0.
func (f *facade[S]) Jaccard(u, v uint64) float64 {
	s, _ := f.store.Estimate(core.QueryJaccard, u, v)
	return s
}

// CommonNeighbors returns the estimated number of common neighbors of
// (u, v) — directed two-path midpoints |{w : u → w → v}| on directed
// predictors.
func (f *facade[S]) CommonNeighbors(u, v uint64) float64 {
	s, _ := f.store.Estimate(core.QueryCommonNeighbors, u, v)
	return s
}

// AdamicAdar returns the estimated Adamic–Adar index of (u, v) using
// the matched-register estimator, weighting common neighbors by
// 1/ln d(w) under the store's live degree estimates.
func (f *facade[S]) AdamicAdar(u, v uint64) float64 {
	s, _ := f.store.Estimate(core.QueryAdamicAdar, u, v)
	return s
}

// ResourceAllocation returns the estimated resource-allocation index
// RA(u, v) = Σ_{w ∈ N(u)∩N(v)} 1/d(w).
func (f *facade[S]) ResourceAllocation(u, v uint64) float64 {
	s, _ := f.store.Estimate(core.QueryResourceAllocation, u, v)
	return s
}

// PreferentialAttachment returns the degree product d(u)·d(v) under the
// predictor's degree estimates — d_out(u)·d_in(v) on directed
// predictors.
func (f *facade[S]) PreferentialAttachment(u, v uint64) float64 {
	s, _ := f.store.Estimate(core.QueryPreferentialAttachment, u, v)
	return s
}

// Cosine returns the estimated cosine (Salton) similarity
// |N(u)∩N(v)| / sqrt(d(u)·d(v)).
func (f *facade[S]) Cosine(u, v uint64) float64 {
	s, _ := f.store.Estimate(core.QueryCosine, u, v)
	return s
}

// Score returns the estimate of the given measure for (u, v) — for the
// candidate arc u → v on directed predictors. Every library measure is
// supported on every predictor type.
func (f *facade[S]) Score(m Measure, u, v uint64) (float64, error) {
	qm, err := queryMeasure(m)
	if err != nil {
		return 0, err
	}
	return f.store.Estimate(qm, u, v)
}

// ScoreBatch scores every candidate against u under the given measure
// in one batched pass, returning scores aligned with candidates. It is
// equivalent to calling Score per pair but computes shared work — the
// source's sketch resolution and the weighted measures' common-neighbor
// degree lookups — once per batch, and scores chunks on parallel
// workers. Duplicate candidate ids receive identical scores; a
// candidate equal to u is scored like any other pair (TopK is the
// ranking layer that skips the source and deduplicates).
func (f *facade[S]) ScoreBatch(m Measure, u uint64, candidates []uint64) ([]float64, error) {
	return f.ScoreBatchCtx(context.Background(), m, u, candidates)
}

// TopK scores every candidate vertex against u under the given measure
// and returns the k best, ties broken toward smaller vertex ids for
// determinism. Candidates are deduplicated (repeated ids contribute one
// result entry) and u itself is skipped; scoring goes through the
// batched path and selection uses a size-k heap, so a query is O(N) in
// scoring plus O(N log k) in selection rather than O(N log N).
// Candidate generation is the caller's concern (a streaming sketch
// cannot enumerate two-hop neighborhoods itself); typical callers track
// recently active vertices or a per-community candidate pool.
func (f *facade[S]) TopK(m Measure, u uint64, candidates []uint64, k int) ([]Candidate, error) {
	return f.TopKCtx(context.Background(), m, u, candidates, k)
}

// Degree returns the predictor's degree estimate for u (exact arrival
// count, or KMV distinct estimate under Config.DistinctDegrees; total
// in+out degree on directed predictors; windowed distinct count on
// windowed predictors).
func (f *facade[S]) Degree(u uint64) float64 { return f.store.Degree(u) }

// Seen reports whether u has appeared in the stream (within the live
// window, on windowed predictors).
func (f *facade[S]) Seen(u uint64) bool { return f.store.Knows(u) }

// NumVertices returns the number of distinct vertices observed
// (currently live in the window, on windowed predictors).
func (f *facade[S]) NumVertices() int { return f.store.NumVertices() }

// NumEdges returns the number of (non-self-loop) edges observed,
// counting duplicates (arcs on directed predictors; edges currently
// held, on windowed predictors).
func (f *facade[S]) NumEdges() int64 { return f.store.NumEdges() }

// MemoryBytes returns the predictor's payload memory: O(K) per observed
// vertex, independent of the number of edges.
func (f *facade[S]) MemoryBytes() int { return f.store.MemoryBytes() }

// Reserve pre-sizes the predictor's vertex maps and register arenas for
// n expected vertices, avoiding incremental grow copies during bulk
// ingest. A sizing hint only: it never shrinks, and ingest beyond n
// grows normally. Must not run concurrently with writes.
func (f *facade[S]) Reserve(n int) { f.store.Reserve(n) }

// TierOccupancy returns the live vertex count per register tier (index
// aligned with Config.Tiers), or nil when the predictor is uniform.
func (f *facade[S]) TierOccupancy() []int { return f.store.TierOccupancy() }

// Save writes the predictor's complete state (configuration, degree
// counters and sketches) to w in a versioned binary format, for
// checkpointing long-running stream processors. Each predictor type has
// its own Load constructor; LoadAnyEngine re-opens any of them. Facades
// over sharded stores take a consistent snapshot (concurrent writers
// block for the duration).
func (f *facade[S]) Save(w io.Writer) error {
	if err := f.store.Save(w); err != nil {
		return fmt.Errorf("linkpred: %w", err)
	}
	return nil
}
