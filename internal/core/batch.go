package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"linkpred/internal/hashing"
	"linkpred/internal/rng"
	"linkpred/internal/stream"
)

// Batched ingest pipeline shared by Sharded and ShardedDirected.
//
// The per-edge concurrent path pays, for every edge, two write-lock
// acquisitions, two vertex-map lookups, and 2K hash evaluations. The
// batch pipeline restructures that work into stages so that all hashing
// happens outside any lock, repeated vertices are hashed and looked up
// once per batch, and each shard's lock is taken once per batch:
//
//  1. Collect: expand the batch into half-edges (owner absorbs neighbor)
//     while interning every endpoint through a per-batch memo table —
//     graph streams repeat hub vertices constantly, so a batch of B
//     edges typically mentions far fewer than 2B distinct vertices.
//     Each half-edge records only dense indices into the distinct list.
//     A second memo folds duplicate edges into multiplicities: merging
//     the same hash vector twice is a register no-op, so a repeated
//     edge costs one merge plus an arrival-count bump, not 2K register
//     comparisons per repeat. Raw interaction streams (the ingest
//     reality — see E12) repeat pairs heavily, and the per-edge path
//     cannot skip any of that work.
//  2. Hash: evaluate the K-function family on every distinct vertex,
//     writing into a flat arena. Chunks of the distinct list go to a
//     worker pool sized from runtime.GOMAXPROCS; chunk ranges are
//     disjoint, so workers share no mutable state and need no locks.
//  3. Group: two stable counting sorts — distinct vertices by shard,
//     half-edges by owner. Together they let stage 4 walk each shard's
//     vertices with exactly ONE map lookup per distinct vertex per
//     batch (the per-edge path pays two per edge) and apply all of a
//     vertex's updates back-to-back, while its 2×8K bytes of registers
//     are hot in cache — on heavy-tailed streams the register scan is
//     otherwise memory-bound on cold sketches.
//  4. Apply: workers claim shards off an atomic cursor; each shard's
//     whole group is applied under a single write-lock acquisition.
//     A shard is owned by exactly one worker and locks never nest, so
//     the stage is deadlock-free by construction.
//
// Correctness of hash-outside-lock: every shard shares one hash family
// (same Config.Seed), so a hash vector computed in stage 2 is valid for
// whichever shard the half-edge lands on. Register updates are pointwise
// minima — commutative and idempotent — and degree counters are sums, so
// any application order yields register state identical to sequential
// ingest of the same multiset of edges. Tests assert this bit-for-bit.
//
// All buffers live in a pooled batchScratch, so steady-state batch
// ingest performs no per-edge allocations.

// halfEdge is one direction of a batched edge: the owner's sketch
// absorbs the neighbor. Both vertices are referenced by their dense
// index into the scratch's distinct list (hashIdx doubles as the
// neighbor's hash-vector index in the arena). mult counts how many times
// the edge appeared in the batch: register merges are idempotent, so a
// repeated edge is merged once and only its arrival count is scaled —
// raw interaction streams repeat pairs constantly, and the per-edge path
// has no way to skip that work. out distinguishes the two sides of a
// directed arc (unused in undirected mode).
type halfEdge struct {
	ownerIdx int32
	hashIdx  int32
	mult     int32
	out      bool
}

// batchScratch holds every reusable buffer of one in-flight batch. It is
// store-agnostic (slices are resized to the batch and configuration at
// hand), so one global pool serves all stores.
type batchScratch struct {
	halves   []halfEdge
	distinct []uint64 // distinct vertices, first-appearance order
	hashes   []uint64 // hash arena: vector i at [i*K, (i+1)*K)

	// Open-addressing memo table vertex -> distinct index, invalidated in
	// O(1) per batch by bumping epoch.
	memoKeys  []uint64
	memoIdx   []int32
	memoEpoch []uint32
	epoch     uint32

	// Open-addressing pair memo (packed distinct-index pair -> half-edge
	// index) used to fold duplicate edges into halfEdge.mult. Shares the
	// epoch counter with the vertex memo.
	pairKeys  []uint64
	pairIdx   []int32
	pairEpoch []uint32

	// Stage-3 grouping workspaces (see group.go). vertGroup holds
	// distinct-vertex indices grouped by destination shard; ownerGroup
	// holds half-edge indices grouped by owner, so stage 4 can apply each
	// owner's updates as one contiguous run. vertShard caches the shard
	// assignment so the two counting-sort passes hash each vertex once.
	vertShard  []int32
	vertGroup  grouping
	ownerGroup grouping

	// Pipeline completion state (see pipeline.go). refs counts the owner
	// goroutines still holding this published batch; done (capacity 1,
	// allocated once per scratch) delivers the sync-publish completion;
	// async marks batches the last owner recycles itself; pubOwners is
	// the reused owner fan-out list; footprint caches memoryFootprint()
	// at publish time so the in-flight gauge adds and removes the same
	// figure even if a slice grows in between.
	refs      atomic.Int32
	done      chan struct{}
	async     bool
	footprint int64
	pubOwners []int32
}

// pipeSlotBytes is the ring-slot size used by the pipeline memory gauge.
const pipeSlotBytes = int64(unsafe.Sizeof(pipeSlot{}))

func sliceBytes[T any](s []T) int64 {
	var z T
	return int64(cap(s)) * int64(unsafe.Sizeof(z))
}

// memoryFootprint is the scratch's owned buffer memory: what a batch
// pins while queued on pipeline rings. Counted into the owning store's
// MemoryBytes while in flight.
func (sc *batchScratch) memoryFootprint() int64 {
	return sliceBytes(sc.halves) + sliceBytes(sc.distinct) + sliceBytes(sc.hashes) +
		sliceBytes(sc.memoKeys) + sliceBytes(sc.memoIdx) + sliceBytes(sc.memoEpoch) +
		sliceBytes(sc.pairKeys) + sliceBytes(sc.pairIdx) + sliceBytes(sc.pairEpoch) +
		sliceBytes(sc.vertShard) + sliceBytes(sc.pubOwners) +
		sliceBytes(sc.vertGroup.starts) + sliceBytes(sc.vertGroup.order) + sliceBytes(sc.vertGroup.fill) +
		sliceBytes(sc.ownerGroup.starts) + sliceBytes(sc.ownerGroup.order) + sliceBytes(sc.ownerGroup.fill)
}

// prefetchSink receives the XOR of the apply loops' lookahead loads so
// the compiler cannot discard them (see the loops for why they exist).
// It is a package-level atomic, not a scratch field: apply runs on
// several goroutines at once (forEachShard workers, pipeline owners),
// and a plain shared field would be a write-write race.
var prefetchSink atomic.Uint64

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// minHashChunk is the smallest distinct-vertex chunk worth handing to a
// hashing worker; below this the goroutine hand-off costs more than the
// hashing it parallelizes.
const minHashChunk = 256

// grow returns buf resized to n, reallocating only when capacity is
// insufficient (ints generalize over the scratch's index slices).
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// pairFind probes the pair memo for key (a packed pair of distinct
// indices). On first sight it records the current end of sc.halves as
// the pair's half-edge position and returns -1; on a repeat it returns
// the recorded position so the caller can bump the pair's multiplicity.
func (sc *batchScratch) pairFind(key uint64) int32 {
	mask := uint64(len(sc.pairKeys) - 1)
	slot := rng.Mix64(key) & mask
	for {
		if sc.pairEpoch[slot] != sc.epoch {
			sc.pairEpoch[slot] = sc.epoch
			sc.pairKeys[slot] = key
			sc.pairIdx[slot] = int32(len(sc.halves))
			return -1
		}
		if sc.pairKeys[slot] == key {
			return sc.pairIdx[slot]
		}
		slot = (slot + 1) & mask
	}
}

// memoFind returns the distinct-index of v, interning it (appending to
// sc.distinct) on first sight within this batch.
func (sc *batchScratch) memoFind(v uint64) int32 {
	mask := uint64(len(sc.memoKeys) - 1)
	slot := rng.Mix64(v) & mask
	for {
		if sc.memoEpoch[slot] != sc.epoch {
			sc.memoEpoch[slot] = sc.epoch
			sc.memoKeys[slot] = v
			idx := int32(len(sc.distinct))
			sc.memoIdx[slot] = idx
			sc.distinct = append(sc.distinct, v)
			return idx
		}
		if sc.memoKeys[slot] == v {
			return sc.memoIdx[slot]
		}
		slot = (slot + 1) & mask
	}
}

// prepare runs stages 1–3 for a batch: half-edge expansion with vertex
// interning, parallel hashing of the distinct vertices, and the
// owner/shard grouping sorts. directed controls whether the two
// half-edges of each input carry out/in sides. foldDups enables the
// duplicate-edge multiplicity folding; tiered stores must pass false,
// because folding reorders a vertex's arrivals within the batch and a
// promotion threshold crossed mid-batch would then see different
// registers than sequential ingest (uniform stores are unaffected —
// register merges are idempotent there). It returns the number of
// non-self-loop edges in the batch.
func (sc *batchScratch) prepare(edges []stream.Edge, k, nShards int, family *hashing.Family, directed, foldDups bool) int {
	// Stage 1: collect half-edges, interning vertices via the vertex memo
	// and folding duplicate edges into multiplicities via the pair memo.
	sc.halves = sc.halves[:0]
	sc.distinct = sc.distinct[:0]
	vertSize := 1
	for vertSize < 2*len(edges)*2 { // ≤ 2 distinct vertices per edge, ≤ 50% load
		vertSize <<= 1
	}
	pairSize := 1
	for pairSize < 2*len(edges) { // ≤ 1 distinct pair per edge, ≤ 50% load
		pairSize <<= 1
	}
	if len(sc.memoKeys) < vertSize || len(sc.pairKeys) < pairSize {
		// The two tables share one epoch counter, so resetting it requires
		// both tables to hold no entry stamped with a reachable epoch: a
		// freshly allocated table is all-zero, a retained one is cleared.
		if len(sc.memoKeys) < vertSize {
			sc.memoKeys = make([]uint64, vertSize)
			sc.memoIdx = make([]int32, vertSize)
			sc.memoEpoch = make([]uint32, vertSize)
		} else {
			clear(sc.memoEpoch)
		}
		if len(sc.pairKeys) < pairSize {
			sc.pairKeys = make([]uint64, pairSize)
			sc.pairIdx = make([]int32, pairSize)
			sc.pairEpoch = make([]uint32, pairSize)
		} else {
			clear(sc.pairEpoch)
		}
		sc.epoch = 0
	}
	sc.epoch++
	if sc.epoch == 0 { // uint32 wraparound: stale epochs could false-hit
		clear(sc.memoEpoch)
		clear(sc.pairEpoch)
		sc.epoch = 1
	}
	n := 0
	for _, e := range edges {
		if e.IsSelfLoop() {
			continue
		}
		n++
		iu, iv := sc.memoFind(e.U), sc.memoFind(e.V)
		// Duplicate edges within the batch merge identical hash vectors —
		// a register-level no-op — so they only scale arrival counts.
		// Undirected edges are normalized so (u,v) and (v,u) fold together,
		// exactly as they would update the same two sketches sequentially.
		if foldDups {
			lo, hi := iu, iv
			if !directed && lo > hi {
				lo, hi = hi, lo
			}
			if j := sc.pairFind(uint64(uint32(lo))<<32 | uint64(uint32(hi))); j >= 0 {
				sc.halves[j].mult++
				sc.halves[j+1].mult++
				continue
			}
		}
		sc.halves = append(sc.halves,
			halfEdge{ownerIdx: iu, hashIdx: iv, mult: 1, out: directed},
			halfEdge{ownerIdx: iv, hashIdx: iu, mult: 1})
	}
	if n == 0 {
		return 0
	}
	nd := len(sc.distinct)

	// Stage 2: hash the distinct vertices into the arena, in parallel
	// when the batch is big enough to amortize the goroutine hand-off.
	sc.hashes = grow(sc.hashes, nd*k)
	hashRange := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			family.HashAllTo(sc.distinct[i], sc.hashes[i*k:(i+1)*k])
		}
	}
	workers := runtime.GOMAXPROCS(0)
	if limit := (nd + minHashChunk - 1) / minHashChunk; workers > limit {
		workers = limit
	}
	if workers <= 1 {
		hashRange(0, nd)
	} else {
		var wg sync.WaitGroup
		chunk := (nd + workers - 1) / workers
		for lo := 0; lo < nd; lo += chunk {
			hi := lo + chunk
			if hi > nd {
				hi = nd
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				hashRange(lo, hi)
			}(lo, hi)
		}
		wg.Wait()
	}

	// Stage 3a: counting-sort distinct vertices by destination shard.
	// The shard assignment is precomputed so each vertex is hashed once
	// across the two counting-sort passes.
	sc.vertShard = grow(sc.vertShard, nd)
	for i, v := range sc.distinct {
		sc.vertShard[i] = int32(rng.Mix64(v) % uint64(nShards))
	}
	sc.vertGroup.group(nd, nShards, func(i int) int32 { return sc.vertShard[i] })

	// Stage 3b: counting-sort half-edge indices by owner, so stage 4 can
	// apply each owner's updates as one contiguous run.
	sc.ownerGroup.group(len(sc.halves), nd, func(i int) int32 { return sc.halves[i].ownerIdx })
	return n
}

// applyShards runs stage 4: workers claim shard indices off an atomic
// cursor and call apply(shard) for every shard that owns at least one
// batch vertex; the callback takes the shard's write lock, walks the
// shard's slice of vertGroup.order, and releases the lock. Worker count
// comes from GOMAXPROCS, capped by the shard count (see forEachShard).
func (sc *batchScratch) applyShards(nShards int, apply func(shard int)) {
	forEachShard(nShards, sc.vertGroup.starts, apply)
}

// applyShardBatch applies shard's slice of the prepared batch sc under
// the shard's write lock: stage 4 of the batch pipeline for one shard.
// Called by the lock-handoff fan-out (applyShards) and by the pipeline
// owner loop — the two paths share every instruction, which is what
// makes the pipeline's byte-identical-to-sequential guarantee a
// property of this one function.
func (s *Sharded) applyShardBatch(sc *batchScratch, shard int) {
	st := s.shards[shard]
	k := st.cfg.K
	s.mus[shard].Lock()
	lo, hi := sc.vertGroup.starts[shard], sc.vertGroup.starts[shard+1]
	// Software-pipelined vertex lookup: resolve vertex vi+1's state
	// (map-bucket chain plus first touches of its register lines)
	// while vi's register merges execute, overlapping the L3 latency
	// of the next cold sketch with the current one's compute. Only
	// the batch path can do this — it knows the shard's whole vertex
	// list up front; the per-edge path has no lookahead to work with.
	var next *vertexState
	var sink uint64
	if hi > lo {
		next = st.state(sc.distinct[sc.vertGroup.order[lo]])
	}
	for vi := lo; vi < hi; vi++ {
		o := sc.vertGroup.order[vi]
		vs := next
		if vi+1 < hi {
			// state may grow the bank; bank.update below re-derives
			// its spans per call, so no slice here can go stale.
			next = st.state(sc.distinct[sc.vertGroup.order[vi+1]])
			nv := st.bank.regs(next.slot)
			for j := 0; j < len(nv); j += 8 { // one load per cache line
				sink ^= nv[j]
			}
		}
		group := sc.ownerGroup.order[sc.ownerGroup.starts[o]:sc.ownerGroup.starts[o+1]]
		vs.deg.invalidate()
		if st.tiers != nil {
			// Tiered stores interleave count/promote/fold per half-edge in
			// stream order (the stable owner sort preserves it); dup folding
			// is disabled for them in prepare, so mult is always 1 here.
			for _, hj := range group {
				h := &sc.halves[hj]
				vs.arrivals++
				st.promoteIfDue(vs)
				st.bank.update(vs.slot, sc.distinct[h.hashIdx], sc.hashes[int(h.hashIdx)*k:(int(h.hashIdx)+1)*k])
			}
			continue
		}
		var arr int64
		for _, hj := range group {
			h := &sc.halves[hj]
			st.bank.update(vs.slot, sc.distinct[h.hashIdx], sc.hashes[int(h.hashIdx)*k:(int(h.hashIdx)+1)*k])
			arr += int64(h.mult)
		}
		vs.arrivals += arr
	}
	prefetchSink.Store(sink) // keep the lookahead loads observable
	s.refreshGauges(shard)
	s.mus[shard].Unlock()
}

// IngestBatch folds a batch of edges into the sketches of all endpoints
// through the staged pipeline above: all hashing happens outside any
// lock, repeated vertices are hashed and looked up once per batch, and
// each shard's write lock is acquired once per batch instead of twice
// per edge. Self-loops are skipped. The resulting register state is
// identical to calling ProcessEdge on each edge in any order. Safe for
// concurrent use, including concurrently with ProcessEdge and all
// estimators.
//
// When the store's ingest pipeline is running (StartPipeline) the
// prepared batch is published to the shard owners and the call blocks
// until they finish, so the post-return contract — batch fully applied,
// gauges refreshed — is identical on both paths.
//
// done (nil never cancels) is polled before the batch is handed to the
// store, and while the producer spins on a full pipeline ring (see
// publishBatch). A fired done returns ErrCanceled with nothing applied;
// once any shard owner holds the batch it always completes, because a
// half-applied batch would desynchronize the store from the WAL's acked
// prefix.
//
// For meaningful amortization pass batches of a few hundred edges or
// more; ProcessEdge remains the better call for single edges.
func (s *Sharded) IngestBatch(edges []stream.Edge, done <-chan struct{}) error {
	if len(edges) == 0 {
		return nil
	}
	if canceled(done) {
		return ErrCanceled
	}
	if p := s.pipe.Load(); p != nil && p.enter() {
		err := s.processEdgesVia(p, edges, true, done)
		p.exit()
		return err
	}
	sc := batchPool.Get().(*batchScratch)
	k := s.shards[0].cfg.K
	n := sc.prepare(edges, k, len(s.shards), s.shards[0].family, false, s.shards[0].tiers == nil)
	if n > 0 {
		if canceled(done) {
			batchPool.Put(sc)
			return ErrCanceled
		}
		sc.applyShards(len(s.shards), func(shard int) { s.applyShardBatch(sc, shard) })
		s.edges.Add(int64(n))
	}
	batchPool.Put(sc)
	return nil
}

// ProcessEdgesAsync publishes a batch to the running ingest pipeline
// without waiting for the applies to complete; FlushIngest is the
// barrier. With no pipeline running it degrades to the synchronous
// IngestBatch. Used by batched WAL replay, where the reader goroutine
// should decode the next record while the owners apply this one.
func (s *Sharded) ProcessEdgesAsync(edges []stream.Edge) {
	if len(edges) == 0 {
		return
	}
	if p := s.pipe.Load(); p != nil && p.enter() {
		s.processEdgesVia(p, edges, false, nil)
		p.exit()
		return
	}
	s.IngestBatch(edges, nil)
}

// processEdgesVia runs stages 1–3 on the caller's goroutine and
// publishes the prepared batch to the pipeline owners. With wait the
// scratch comes back to the pool here; async batches are recycled by
// the last owner out. A done that fires before the batch reaches any
// owner withdraws the publish: ErrCanceled, nothing applied.
func (s *Sharded) processEdgesVia(p *pipeline, edges []stream.Edge, wait bool, done <-chan struct{}) error {
	sc := batchPool.Get().(*batchScratch)
	k := s.shards[0].cfg.K
	n := sc.prepare(edges, k, len(s.shards), s.shards[0].family, false, s.shards[0].tiers == nil)
	if n == 0 {
		batchPool.Put(sc)
		return nil
	}
	if !p.publishBatch(sc, wait, done) {
		batchPool.Put(sc)
		return ErrCanceled
	}
	if wait {
		batchPool.Put(sc)
	}
	s.edges.Add(int64(n))
	return nil
}

// applyShardBatch is the directed stage-4 apply for one shard of a
// prepared batch: the directed analogue of Sharded.applyShardBatch,
// shared by the lock-handoff fan-out and the pipeline owner loop.
func (s *ShardedDirected) applyShardBatch(sc *batchScratch, shard int) {
	st := s.shards[shard]
	k := st.cfg.K
	s.mus[shard].Lock()
	lo, hi := sc.vertGroup.starts[shard], sc.vertGroup.starts[shard+1]
	// Same software-pipelined vertex lookahead as the undirected
	// apply loop (see Sharded.applyShardBatch).
	var next *dirVertexState
	var sink uint64
	if hi > lo {
		next = st.state(sc.distinct[sc.vertGroup.order[lo]])
	}
	for vi := lo; vi < hi; vi++ {
		o := sc.vertGroup.order[vi]
		vs := next
		if vi+1 < hi {
			// Same staleness discipline as the undirected loop: the
			// spans are derived after the state call that may grow
			// the banks, and bank.update re-derives per call. The two
			// sides' spans can differ in length on tiered stores, so
			// each is walked on its own.
			next = st.state(sc.distinct[sc.vertGroup.order[vi+1]])
			no, ni := st.out.regs(next.outSlot), st.in.regs(next.inSlot)
			for j := 0; j < len(no); j += 8 { // one load per cache line
				sink ^= no[j]
			}
			for j := 0; j < len(ni); j += 8 {
				sink ^= ni[j]
			}
		}
		group := sc.ownerGroup.order[sc.ownerGroup.starts[o]:sc.ownerGroup.starts[o+1]]
		if st.tiers != nil {
			// Count/promote/fold per half-arc in stream order, as in the
			// undirected tiered branch; mult is always 1 (no dup folding).
			for _, hj := range group {
				h := &sc.halves[hj]
				nbrHashes := sc.hashes[int(h.hashIdx)*k : (int(h.hashIdx)+1)*k]
				if h.out {
					vs.outArr++
					st.promoteOutIfDue(vs)
					st.out.update(vs.outSlot, sc.distinct[h.hashIdx], nbrHashes)
					vs.outDeg.invalidate()
				} else {
					vs.inArr++
					st.promoteInIfDue(vs)
					st.in.update(vs.inSlot, sc.distinct[h.hashIdx], nbrHashes)
					vs.inDeg.invalidate()
				}
			}
			continue
		}
		for _, hj := range group {
			h := &sc.halves[hj]
			nbrHashes := sc.hashes[int(h.hashIdx)*k : (int(h.hashIdx)+1)*k]
			if h.out {
				st.out.update(vs.outSlot, sc.distinct[h.hashIdx], nbrHashes)
				vs.outArr += int64(h.mult)
				vs.outDeg.invalidate()
			} else {
				st.in.update(vs.inSlot, sc.distinct[h.hashIdx], nbrHashes)
				vs.inArr += int64(h.mult)
				vs.inDeg.invalidate()
			}
		}
	}
	prefetchSink.Store(sink) // keep the lookahead loads observable
	s.refreshGauges(shard)
	s.mus[shard].Unlock()
}

// IngestBatch is the directed analogue of Sharded.IngestBatch: it folds
// a batch of arcs u → v into the out-sketches of the sources and the
// in-sketches of the targets with hashing outside any lock and one lock
// acquisition per shard per batch. Register state is identical to
// calling ProcessArc per arc. Safe for concurrent use. Pipeline routing
// and pre-commit cancellation follow Sharded.IngestBatch exactly.
func (s *ShardedDirected) IngestBatch(arcs []stream.Edge, done <-chan struct{}) error {
	if len(arcs) == 0 {
		return nil
	}
	if canceled(done) {
		return ErrCanceled
	}
	if p := s.pipe.Load(); p != nil && p.enter() {
		err := s.processArcsVia(p, arcs, true, done)
		p.exit()
		return err
	}
	sc := batchPool.Get().(*batchScratch)
	k := s.shards[0].cfg.K
	n := sc.prepare(arcs, k, len(s.shards), s.shards[0].family, true, s.shards[0].tiers == nil)
	if n > 0 {
		if canceled(done) {
			batchPool.Put(sc)
			return ErrCanceled
		}
		sc.applyShards(len(s.shards), func(shard int) { s.applyShardBatch(sc, shard) })
		s.arcs.Add(int64(n))
	}
	batchPool.Put(sc)
	return nil
}

// ProcessArcsAsync is the directed ProcessEdgesAsync: pipeline publish
// without the completion wait, FlushIngest as the barrier, synchronous
// degradation when no pipeline is running.
func (s *ShardedDirected) ProcessArcsAsync(arcs []stream.Edge) {
	if len(arcs) == 0 {
		return
	}
	if p := s.pipe.Load(); p != nil && p.enter() {
		s.processArcsVia(p, arcs, false, nil)
		p.exit()
		return
	}
	s.IngestBatch(arcs, nil)
}

func (s *ShardedDirected) processArcsVia(p *pipeline, arcs []stream.Edge, wait bool, done <-chan struct{}) error {
	sc := batchPool.Get().(*batchScratch)
	k := s.shards[0].cfg.K
	n := sc.prepare(arcs, k, len(s.shards), s.shards[0].family, true, s.shards[0].tiers == nil)
	if n == 0 {
		batchPool.Put(sc)
		return nil
	}
	if !p.publishBatch(sc, wait, done) {
		batchPool.Put(sc)
		return ErrCanceled
	}
	if wait {
		batchPool.Put(sc)
	}
	s.arcs.Add(int64(n))
	return nil
}
