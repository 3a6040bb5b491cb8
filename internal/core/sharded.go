package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"linkpred/internal/rng"
	"linkpred/internal/stream"
)

// Sharded is a thread-safe sketch store for concurrent ingest: vertices
// are partitioned by hash across n shards, each an independent
// SketchStore guarded by its own RWMutex. All shards share one hash
// family (same Config.Seed), so registers from different shards remain
// comparable and every estimator is well defined across shards.
//
// An edge updates exactly two vertex states, so ProcessEdge locks at
// most two shards (in index order, which makes writer lock acquisition
// deadlock-free). Queries take read locks; the weighted estimators
// (Adamic–Adar, resource allocation) read the matched common neighbors
// under the pair's locks, release them, and then look up each sampled
// neighbor's degree one shard at a time — never holding more than the
// ordered pair, so readers cannot deadlock with writers either. Under
// concurrent ingest a weighted estimate may therefore mix register state
// from one instant with degrees read a few microseconds later; the
// estimators are continuous in the degrees, so the perturbation is
// bounded by the ingest rate and irrelevant in practice.
//
// The vertex-biased sketches are not supported in sharded mode (their
// insertion path reads the *other* endpoint's degree, which would
// require cross-shard locking on the hot path); NewSharded rejects
// Config.EnableBiased.
type Sharded struct {
	shards []*SketchStore
	mus    []sync.RWMutex
	edges  atomic.Int64

	// Per-shard gauges refreshed at the tail of every write-locked apply
	// (ProcessEdge, ProcessEdges, load), so aggregate scrapes
	// (NumVertices, MemoryBytes — hit on every /metrics poll) are
	// O(shards) lock-free reads instead of taking and releasing every
	// shard lock serially per call.
	vertGauge []atomic.Int64
	memGauge  []atomic.Int64

	// pipe is the optional shard-owner ingest pipeline (pipeline.go);
	// nil means batched ingest uses the lock-handoff fan-out. Swapped
	// atomically so ProcessEdges can check it without a lock.
	pipe atomic.Pointer[pipeline]
}

// NewSharded returns a Sharded store with the given number of shards.
// It returns an error if nShards < 1, cfg is invalid, or cfg.EnableBiased
// is set.
func NewSharded(cfg Config, nShards int) (*Sharded, error) {
	if nShards < 1 {
		return nil, fmt.Errorf("core: NewSharded needs nShards >= 1, got %d", nShards)
	}
	if cfg.EnableBiased {
		return nil, fmt.Errorf("core: sharded mode does not support the vertex-biased sketches")
	}
	if cfg.TrackTriangles {
		return nil, fmt.Errorf("core: sharded mode does not support triangle tracking (the pre-insertion scan would need both shards' locks on every edge)")
	}
	s := &Sharded{
		shards:    make([]*SketchStore, nShards),
		mus:       make([]sync.RWMutex, nShards),
		vertGauge: make([]atomic.Int64, nShards),
		memGauge:  make([]atomic.Int64, nShards),
	}
	for i := range s.shards {
		store, err := NewSketchStore(cfg) // same seed ⇒ same hash family everywhere
		if err != nil {
			return nil, err
		}
		s.shards[i] = store
	}
	return s, nil
}

// Config returns the per-shard configuration.
func (s *Sharded) Config() Config { return s.shards[0].cfg }

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Reserve pre-sizes every shard for its share of n expected vertices
// (see SketchStore.Reserve). Safe for concurrent use.
func (s *Sharded) Reserve(n int) {
	per := (n + len(s.shards) - 1) / len(s.shards)
	for i := range s.shards {
		s.mus[i].Lock()
		s.shards[i].Reserve(per)
		s.mus[i].Unlock()
	}
}

// TierOccupancy returns the live vertex count per register tier summed
// across shards, or nil for a uniform store. Safe for concurrent use.
func (s *Sharded) TierOccupancy() []int {
	var total []int
	for i := range s.shards {
		s.mus[i].RLock()
		counts := s.shards[i].TierOccupancy()
		s.mus[i].RUnlock()
		if counts == nil {
			return nil
		}
		if total == nil {
			total = make([]int, len(counts))
		}
		for t, c := range counts {
			total[t] += c
		}
	}
	return total
}

func (s *Sharded) shardOf(u uint64) int {
	return int(rng.Mix64(u) % uint64(len(s.shards)))
}

// applyHalfEdge folds neighbor nbr, whose precomputed hash vector is
// nbrHashes, into owner's sketch on store st. The caller must hold st's
// write lock; hashing happens outside it.
func (st *SketchStore) applyHalfEdge(owner, nbr uint64, nbrHashes []uint64) {
	vs := st.state(owner)
	vs.deg.invalidate()
	if st.tiers != nil {
		// Same per-half-edge order as the tiered ProcessEdge: count,
		// promote, fold (see that method for why it must be this order).
		vs.arrivals++
		st.promoteIfDue(vs)
		st.bank.update(vs.slot, nbr, nbrHashes)
		return
	}
	st.bank.update(vs.slot, nbr, nbrHashes)
	vs.arrivals++
}

// edgeHashPool recycles the 2K-word hash buffer of single-edge ingest so
// the hot path stays allocation-free without serializing callers on a
// per-store buffer (the old design hashed into SketchStore.hashBuf
// *inside* the shard lock, making lock hold time O(K) hash evaluations).
var edgeHashPool = sync.Pool{New: func() any { return new([]uint64) }}

// ProcessEdge folds one edge into the sketches of both endpoints. Safe
// for concurrent use. Both hash vectors are computed before any lock is
// taken, so the locks cover only the O(K) register merges. For bulk
// ingest prefer ProcessEdges, which additionally amortizes lock
// acquisitions over whole batches.
func (s *Sharded) ProcessEdge(e stream.Edge) {
	if e.IsSelfLoop() {
		return
	}
	st0 := s.shards[0]
	k := st0.cfg.K
	bufp := edgeHashPool.Get().(*[]uint64)
	buf := grow(*bufp, 2*k)
	st0.family.HashAllTo(e.V, buf[:k]) // folded into U's sketch
	st0.family.HashAllTo(e.U, buf[k:]) // folded into V's sketch
	a, b := s.shardOf(e.U), s.shardOf(e.V)
	if a > b {
		s.mus[b].Lock()
		s.mus[a].Lock()
	} else if a == b {
		s.mus[a].Lock()
	} else {
		s.mus[a].Lock()
		s.mus[b].Lock()
	}
	s.shards[a].applyHalfEdge(e.U, e.V, buf[:k])
	s.shards[b].applyHalfEdge(e.V, e.U, buf[k:])
	s.refreshGauges(a)
	if b != a {
		s.refreshGauges(b)
	}
	s.mus[a].Unlock()
	if b != a {
		s.mus[b].Unlock()
	}
	s.edges.Add(1)
	*bufp = buf
	edgeHashPool.Put(bufp)
}

// refreshGauges re-derives shard's vertex-count and memory gauges from
// the shard's live state. The caller must hold the shard's write lock,
// which makes each Store a consistent snapshot of the shard at some
// instant. The memory figure reads the register bank's actual storage —
// not an assumed bytes-per-register constant — so the gauge stays
// truthful if a bank ever stops tracking argmin ids (biased sketches are
// rejected by NewSharded, so the bank plus map overhead is everything).
func (s *Sharded) refreshGauges(shard int) {
	st := s.shards[shard]
	n := int64(len(st.vertices))
	s.vertGauge[shard].Store(n)
	s.memGauge[shard].Store(int64(st.bank.memoryBytes()) + n*vertexOverhead)
}

// pairQuery reads the query state of (u, v) — register matches,
// degrees, and (when collect is true) the argmin ids of matching
// registers — under the ordered pair of read locks (measure-kernel
// hook; see measure_kernel.go). matchedIDs is appended to idBuf, so
// callers that pass a reused buffer keep the weighted-query hot path
// allocation-free.
func (s *Sharded) pairQuery(u, v uint64, collect bool, idBuf []uint64) (matches, effK int, du, dv float64, known bool, matchedIDs []uint64) {
	a, b := s.shardOf(u), s.shardOf(v)
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	s.mus[lo].RLock()
	if hi != lo {
		s.mus[hi].RLock()
	}
	defer func() {
		if hi != lo {
			s.mus[hi].RUnlock()
		}
		s.mus[lo].RUnlock()
	}()
	su := s.shards[a].vertices[u]
	sv := s.shards[b].vertices[v]
	if su == nil || sv == nil {
		return 0, s.shards[0].cfg.K, 0, 0, false, idBuf // hand idBuf back so callers keep its capacity
	}
	du = s.shards[a].degree(su)
	dv = s.shards[b].degree(sv)
	matchedIDs = idBuf
	uVals := s.shards[a].bank.regs(su.slot)
	vVals := s.shards[b].bank.regs(sv.slot)
	// Cross-tier pairs compare over the shared prefix (min-k property).
	if len(vVals) < len(uVals) {
		uVals = uVals[:len(vVals)]
	}
	if !collect {
		matches = matchCount(uVals, vVals)
	} else {
		uIDs := s.shards[a].bank.argmins(su.slot)
		for i, val := range uVals {
			if val == emptyRegister || val != vVals[i] {
				continue
			}
			matches++
			matchedIDs = append(matchedIDs, uIDs[i])
		}
	}
	return matches, len(uVals), du, dv, true, matchedIDs
}

// midpointDegree is the degree estimate used to weight common-neighbor
// midpoints (measure kernel hook). Lookups happen after pairQuery has
// released the pair locks — one shard lock at a time inside Degree —
// see the type comment for why.
func (s *Sharded) midpointDegree(w uint64) float64 { return s.Degree(w) }

// Estimate returns the estimate of any query measure for (u, v). Safe
// for concurrent use: matches and both degrees come from a single
// pairQuery snapshot, so each estimate is internally consistent even
// under concurrent writes (weighted midpoint degrees are read after the
// pair locks are released, the same timing caveat as always).
func (s *Sharded) Estimate(m QueryMeasure, u, v uint64) (float64, error) {
	return estimatePair(s, m, u, v)
}

// EstimateJaccard estimates the Jaccard coefficient of (u, v). Safe for
// concurrent use.
func (s *Sharded) EstimateJaccard(u, v uint64) float64 {
	f, _ := estimatePair(s, QueryJaccard, u, v)
	return f
}

// EstimateCommonNeighbors estimates |N(u) ∩ N(v)|. Safe for concurrent
// use.
func (s *Sharded) EstimateCommonNeighbors(u, v uint64) float64 {
	f, _ := estimatePair(s, QueryCommonNeighbors, u, v)
	return f
}

// EstimateAdamicAdar estimates the Adamic–Adar index with the
// matched-register estimator. Safe for concurrent use.
func (s *Sharded) EstimateAdamicAdar(u, v uint64) float64 {
	f, _ := estimatePair(s, QueryAdamicAdar, u, v)
	return f
}

// EstimateResourceAllocation estimates the resource-allocation index.
// Safe for concurrent use.
func (s *Sharded) EstimateResourceAllocation(u, v uint64) float64 {
	f, _ := estimatePair(s, QueryResourceAllocation, u, v)
	return f
}

// EstimatePreferentialAttachment returns d(u)·d(v) under the store's
// degree estimates. Safe for concurrent use.
func (s *Sharded) EstimatePreferentialAttachment(u, v uint64) float64 {
	f, _ := estimatePair(s, QueryPreferentialAttachment, u, v)
	return f
}

// EstimateCosine returns the estimated cosine (Salton) similarity
// |N(u)∩N(v)| / sqrt(d(u)·d(v)). Safe for concurrent use. Pairs
// involving unknown or isolated vertices score 0.
func (s *Sharded) EstimateCosine(u, v uint64) float64 {
	f, _ := estimatePair(s, QueryCosine, u, v)
	return f
}

// Degree returns the degree estimate of u under the configured mode.
// Safe for concurrent use.
func (s *Sharded) Degree(u uint64) float64 {
	i := s.shardOf(u)
	s.mus[i].RLock()
	defer s.mus[i].RUnlock()
	return s.shards[i].Degree(u)
}

// Knows reports whether u has appeared in the stream. Safe for
// concurrent use.
func (s *Sharded) Knows(u uint64) bool {
	i := s.shardOf(u)
	s.mus[i].RLock()
	defer s.mus[i].RUnlock()
	return s.shards[i].Knows(u)
}

// NumVertices returns the number of distinct vertices seen. Safe for
// concurrent use; reads the per-shard gauges maintained on apply, so a
// call is O(shards) atomic loads and never contends with ingest.
func (s *Sharded) NumVertices() int {
	total := int64(0)
	for i := range s.vertGauge {
		total += s.vertGauge[i].Load()
	}
	return int(total)
}

// NumEdges returns the number of (non-self-loop) edges processed. Safe
// for concurrent use.
func (s *Sharded) NumEdges() int64 { return s.edges.Load() }

// MemoryBytes returns the total payload memory across shards. Safe for
// concurrent use; like NumVertices it reads the apply-maintained
// per-shard gauges, so metrics scrapes stay lock-free. While the ingest
// pipeline runs, its ring arrays and in-flight batch scratch are
// included — queued-but-unapplied batches are real memory the process
// holds on the store's behalf.
func (s *Sharded) MemoryBytes() int {
	total := int64(0)
	for i := range s.memGauge {
		total += s.memGauge[i].Load()
	}
	if p := s.pipe.Load(); p != nil {
		total += p.memoryBytes()
	}
	return int(total)
}

// StartPipeline starts the shard-owner ingest pipeline (pipeline.go):
// batched ingest stops contending on shard locks and instead publishes
// prepared batches to dedicated per-shard apply goroutines. workers = 0
// means auto — GOMAXPROCS owners, or stay synchronous (return false)
// when that is 1; workers > 0 forces that many owners even on a
// single-proc host; workers < 0 disables. ringSize is the per-owner
// ring capacity in batches (<= 0 selects the default, 256). Returns
// whether a pipeline is now running; false with a pipeline already
// running leaves it untouched.
func (s *Sharded) StartPipeline(workers, ringSize int) bool {
	n := resolvePipelineWorkers(workers, len(s.shards))
	if n == 0 {
		return false
	}
	if s.pipe.Load() != nil {
		return false
	}
	p := newPipeline(len(s.shards), n, ringSize, func(sc *batchScratch, owner, nOwners int) {
		for shard := owner; shard < len(s.shards); shard += nOwners {
			if sc.vertGroup.starts[shard+1] > sc.vertGroup.starts[shard] {
				s.applyShardBatch(sc, shard)
			}
		}
	})
	if !s.pipe.CompareAndSwap(nil, p) {
		p.stop() // lost an install race; discard the idle pipeline
		return false
	}
	return true
}

// StopPipeline stops the ingest pipeline and blocks until every
// published batch, sync or async, has been applied; subsequent batched
// ingest uses the lock-handoff fan-out again. No-op without a running
// pipeline. Safe for concurrent use with ingest: producers mid-publish
// finish first, producers arriving later fall back to the synchronous
// path.
func (s *Sharded) StopPipeline() {
	if p := s.pipe.Swap(nil); p != nil {
		p.stop()
	}
}

// FlushIngest blocks until every batch published with ProcessEdgesAsync
// has been fully applied. Synchronous ingest needs no barrier; without
// a running pipeline this is a no-op.
func (s *Sharded) FlushIngest() {
	if p := s.pipe.Load(); p != nil {
		p.flush()
	}
}

// PipelineStats snapshots the running pipeline's gauges; ok is false
// when no pipeline is running.
func (s *Sharded) PipelineStats() (st PipelineStats, ok bool) {
	if p := s.pipe.Load(); p != nil {
		return p.stats(), true
	}
	return PipelineStats{}, false
}
