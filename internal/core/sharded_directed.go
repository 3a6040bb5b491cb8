package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"linkpred/internal/rng"
	"linkpred/internal/stream"
)

// ShardedDirected is the thread-safe directed store: the directed
// analogue of Sharded, for parallel ingest of follow/citation streams.
// Vertices are partitioned across shards of DirectedStore; an arc u → v
// updates u's out-sketch and v's in-sketch, so ProcessArc locks at most
// two shards in index order. Query locking follows the same discipline
// as Sharded (ordered pair of read locks; weighted estimators read
// midpoint degrees one shard at a time after releasing the pair).
type ShardedDirected struct {
	shards []*DirectedStore
	mus    []sync.RWMutex
	arcs   atomic.Int64

	// Per-shard gauges mirrored from Sharded: refreshed at the tail of
	// every write-locked apply so NumVertices/MemoryBytes scrapes are
	// O(shards) lock-free reads.
	vertGauge []atomic.Int64
	memGauge  []atomic.Int64

	// pipe is the optional shard-owner ingest pipeline, as on Sharded.
	pipe atomic.Pointer[pipeline]
}

// NewShardedDirected returns a sharded directed store. It returns an
// error under the same conditions as NewDirectedStore, or if nShards < 1.
func NewShardedDirected(cfg Config, nShards int) (*ShardedDirected, error) {
	if nShards < 1 {
		return nil, fmt.Errorf("core: NewShardedDirected needs nShards >= 1, got %d", nShards)
	}
	s := &ShardedDirected{
		shards:    make([]*DirectedStore, nShards),
		mus:       make([]sync.RWMutex, nShards),
		vertGauge: make([]atomic.Int64, nShards),
		memGauge:  make([]atomic.Int64, nShards),
	}
	for i := range s.shards {
		store, err := NewDirectedStore(cfg)
		if err != nil {
			return nil, err
		}
		s.shards[i] = store
	}
	return s, nil
}

// Config returns the per-shard configuration.
func (s *ShardedDirected) Config() Config { return s.shards[0].cfg }

// NumShards returns the shard count.
func (s *ShardedDirected) NumShards() int { return len(s.shards) }

// Reserve pre-sizes every shard for its portion of n expected vertices
// (sizing hint; see Sharded.Reserve).
func (s *ShardedDirected) Reserve(n int) {
	if n <= 0 {
		return
	}
	per := (n + len(s.shards) - 1) / len(s.shards)
	for i := range s.shards {
		s.mus[i].Lock()
		s.shards[i].Reserve(per)
		s.mus[i].Unlock()
	}
}

// TierOccupancy returns live slots per tier summed across shards and
// both sketch sides, or nil on a uniform store.
func (s *ShardedDirected) TierOccupancy() []int {
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
		for j, n := range counts {
			total[j] += n
		}
	}
	return total
}

func (s *ShardedDirected) shardOf(u uint64) int {
	return int(rng.Mix64(u) % uint64(len(s.shards)))
}

// applyHalfArc folds one direction of an arc, whose precomputed hash
// vector is nbrHashes, into the owner's state on store st. The caller
// must hold st's write lock; hashing happens outside it. out selects
// which side (owner's out-sketch of nbr, or owner's in-sketch of nbr).
func (st *DirectedStore) applyHalfArc(owner, nbr uint64, out bool, nbrHashes []uint64) {
	vs := st.state(owner)
	if st.tiers != nil {
		// Canonical tiered order: count, promote, fold (see
		// SketchStore.applyHalfEdge for why this makes batched and
		// per-arc ingest byte-identical).
		if out {
			vs.outArr++
			st.promoteOutIfDue(vs)
			st.out.update(vs.outSlot, nbr, nbrHashes)
			vs.outDeg.invalidate()
		} else {
			vs.inArr++
			st.promoteInIfDue(vs)
			st.in.update(vs.inSlot, nbr, nbrHashes)
			vs.inDeg.invalidate()
		}
		return
	}
	if out {
		st.out.update(vs.outSlot, nbr, nbrHashes)
		vs.outArr++
		vs.outDeg.invalidate()
	} else {
		st.in.update(vs.inSlot, nbr, nbrHashes)
		vs.inArr++
		vs.inDeg.invalidate()
	}
}

// ProcessArc folds the arc u → v into the sketches. Safe for concurrent
// use. As in Sharded.ProcessEdge, both hash vectors are computed before
// any lock is taken; ProcessArcs additionally amortizes lock
// acquisitions over whole batches.
func (s *ShardedDirected) ProcessArc(e stream.Edge) {
	if e.IsSelfLoop() {
		return
	}
	st0 := s.shards[0]
	k := st0.cfg.K
	bufp := edgeHashPool.Get().(*[]uint64)
	buf := grow(*bufp, 2*k)
	st0.family.HashAllTo(e.V, buf[:k]) // folded into U's out-sketch
	st0.family.HashAllTo(e.U, buf[k:]) // folded into V's in-sketch
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
	s.shards[a].applyHalfArc(e.U, e.V, true, buf[:k])
	s.shards[b].applyHalfArc(e.V, e.U, false, buf[k:])
	s.refreshGauges(a)
	if b != a {
		s.refreshGauges(b)
	}
	s.mus[a].Unlock()
	if b != a {
		s.mus[b].Unlock()
	}
	s.arcs.Add(1)
	*bufp = buf
	edgeHashPool.Put(bufp)
}

// refreshGauges re-derives shard's vertex-count and memory gauges; the
// caller must hold the shard's write lock. The memory figure reads the
// two register banks' actual storage, as in Sharded.refreshGauges.
func (s *ShardedDirected) refreshGauges(shard int) {
	st := s.shards[shard]
	n := int64(len(st.vertices))
	s.vertGauge[shard].Store(n)
	s.memGauge[shard].Store(int64(st.out.memoryBytes()+st.in.memoryBytes()) + n*dirVertexOverhead)
}

// pairQuery reads the arc-query state for u → v under the ordered
// pair of read locks (measure-kernel hook; see measure_kernel.go):
// register matches between u's out-sketch and v's in-sketch, the two
// side degrees, and (if collect) the matched argmin ids, appended to
// idBuf so callers can reuse a buffer.
func (s *ShardedDirected) pairQuery(u, v uint64, collect bool, idBuf []uint64) (matches, effK int, dOut, dIn float64, known bool, matchedIDs []uint64) {
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
		return 0, s.shards[0].cfg.K, 0, 0, false, idBuf
	}
	outVals := s.shards[a].out.regs(su.outSlot)
	inVals := s.shards[b].in.regs(sv.inSlot)
	dOut = s.shards[a].sideDegree(&su.outDeg, outVals, su.outArr)
	dIn = s.shards[b].sideDegree(&sv.inDeg, inVals, sv.inArr)
	// Cross-tier pairs compare over the shared register prefix (min-k
	// prefix property, see estimators.go).
	if len(inVals) < len(outVals) {
		outVals = outVals[:len(inVals)]
	}
	matchedIDs = idBuf
	if !collect {
		matches = matchCount(outVals, inVals)
	} else {
		outIDs := s.shards[a].out.argmins(su.outSlot)
		for i, val := range outVals {
			if val == emptyRegister || val != inVals[i] {
				continue
			}
			matches++
			matchedIDs = append(matchedIDs, outIDs[i])
		}
	}
	return matches, len(outVals), dOut, dIn, true, matchedIDs
}

// midpointDegree weights directed midpoints by their estimated total
// (in+out) degree (measure kernel hook). Lookups happen after pairQuery
// has released the pair locks — one shard lock at a time — see Sharded
// for the discipline.
func (s *ShardedDirected) midpointDegree(w uint64) float64 {
	return s.OutDegree(w) + s.InDegree(w)
}

// Estimate returns the estimate of any query measure for the candidate
// arc u → v. Safe for concurrent use: matches and both side degrees
// come from a single pairQuery snapshot, so each estimate is internally
// consistent even under concurrent writes (weighted midpoint degrees
// are read after the pair locks are released, the usual timing caveat).
func (s *ShardedDirected) Estimate(m QueryMeasure, u, v uint64) (float64, error) {
	return estimatePair(s, m, u, v)
}

// EstimateJaccard estimates the directed Jaccard of the candidate arc
// u → v. Safe for concurrent use.
func (s *ShardedDirected) EstimateJaccard(u, v uint64) float64 {
	f, _ := estimatePair(s, QueryJaccard, u, v)
	return f
}

// EstimateCommonNeighbors estimates |{w : u → w → v}|. Safe for
// concurrent use.
func (s *ShardedDirected) EstimateCommonNeighbors(u, v uint64) float64 {
	f, _ := estimatePair(s, QueryCommonNeighbors, u, v)
	return f
}

// EstimateAdamicAdar estimates the directed Adamic–Adar index of u → v.
// Safe for concurrent use; midpoint degrees are read one shard at a time
// after the pair locks are released (see Sharded for the discipline).
func (s *ShardedDirected) EstimateAdamicAdar(u, v uint64) float64 {
	f, _ := estimatePair(s, QueryAdamicAdar, u, v)
	return f
}

// EstimateResourceAllocation estimates the directed resource-allocation
// index of u → v (Adamic–Adar with 1/d midpoint weights). Safe for
// concurrent use.
func (s *ShardedDirected) EstimateResourceAllocation(u, v uint64) float64 {
	f, _ := estimatePair(s, QueryResourceAllocation, u, v)
	return f
}

// EstimatePreferentialAttachment returns the directed degree product
// d_out(u)·d_in(v). Safe for concurrent use.
func (s *ShardedDirected) EstimatePreferentialAttachment(u, v uint64) float64 {
	f, _ := estimatePair(s, QueryPreferentialAttachment, u, v)
	return f
}

// EstimateCosine returns the estimated directed cosine similarity
// |N_out(u) ∩ N_in(v)| / sqrt(d_out(u)·d_in(v)). Safe for concurrent
// use.
func (s *ShardedDirected) EstimateCosine(u, v uint64) float64 {
	f, _ := estimatePair(s, QueryCosine, u, v)
	return f
}

// OutDegree returns the out-degree estimate of u. Safe for concurrent
// use.
func (s *ShardedDirected) OutDegree(u uint64) float64 {
	i := s.shardOf(u)
	s.mus[i].RLock()
	defer s.mus[i].RUnlock()
	return s.shards[i].OutDegree(u)
}

// InDegree returns the in-degree estimate of u. Safe for concurrent use.
func (s *ShardedDirected) InDegree(u uint64) float64 {
	i := s.shardOf(u)
	s.mus[i].RLock()
	defer s.mus[i].RUnlock()
	return s.shards[i].InDegree(u)
}

// Knows reports whether u has appeared in the stream. Safe for
// concurrent use.
func (s *ShardedDirected) Knows(u uint64) bool {
	i := s.shardOf(u)
	s.mus[i].RLock()
	defer s.mus[i].RUnlock()
	return s.shards[i].Knows(u)
}

// NumVertices returns the number of distinct vertices seen. Safe for
// concurrent use; reads the apply-maintained per-shard gauges, so a call
// is O(shards) atomic loads and never contends with ingest.
func (s *ShardedDirected) NumVertices() int {
	total := int64(0)
	for i := range s.vertGauge {
		total += s.vertGauge[i].Load()
	}
	return int(total)
}

// NumArcs returns the number of (non-self-loop) arcs processed. Safe for
// concurrent use.
func (s *ShardedDirected) NumArcs() int64 { return s.arcs.Load() }

// MemoryBytes returns the total payload memory across shards. Safe for
// concurrent use; lock-free gauge reads, as in NumVertices. A running
// ingest pipeline's rings and in-flight scratch are included, as on
// Sharded.
func (s *ShardedDirected) MemoryBytes() int {
	total := int64(0)
	for i := range s.memGauge {
		total += s.memGauge[i].Load()
	}
	if p := s.pipe.Load(); p != nil {
		total += p.memoryBytes()
	}
	return int(total)
}

// StartPipeline starts the shard-owner ingest pipeline; semantics match
// Sharded.StartPipeline.
func (s *ShardedDirected) StartPipeline(workers, ringSize int) bool {
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
		p.stop()
		return false
	}
	return true
}

// StopPipeline stops the ingest pipeline after draining it; semantics
// match Sharded.StopPipeline.
func (s *ShardedDirected) StopPipeline() {
	if p := s.pipe.Swap(nil); p != nil {
		p.stop()
	}
}

// FlushIngest blocks until every ProcessArcsAsync batch has been fully
// applied; no-op without a running pipeline.
func (s *ShardedDirected) FlushIngest() {
	if p := s.pipe.Load(); p != nil {
		p.flush()
	}
}

// PipelineStats snapshots the running pipeline's gauges; ok is false
// when no pipeline is running.
func (s *ShardedDirected) PipelineStats() (st PipelineStats, ok bool) {
	if p := s.pipe.Load(); p != nil {
		return p.stats(), true
	}
	return PipelineStats{}, false
}
