package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Shard-owner ingest pipeline.
//
// The batched ingest in batch.go already hashes outside the locks and
// takes each shard lock once per batch, but the locks themselves are
// still a handoff: every producer's apply fan-out contends on the same
// per-shard mutexes, so ingest throughput goes flat as producers are
// added (the committed e20 numbers). The pipeline removes the handoff
// by giving every shard a dedicated OWNER goroutine that is the only
// writer to that shard's registers:
//
//	producers           owners (one goroutine each)
//	────────────        ───────────────────────────
//	parse, intern,      dequeue batch
//	hash, group   ──►   apply shards s ≡ owner (mod W)
//	publish batch       refresh gauges, count down refs
//
// Producers run stages 1–3 of the batch pipeline (all the work that
// needs no shard state), then publish the prepared scratch to the rings
// of exactly the owners whose shards have work, and never touch shard
// state themselves. With W owners over S shards, owner o applies shards
// {s : s % W == o}; a shard has one owner for the pipeline's lifetime,
// so its whole op sequence is serialized on one goroutine. Owners still
// take the shard write lock — queries and the per-edge path keep
// working unchanged — but the lock is now uncontended among writers.
//
// Correctness: register updates are pointwise minima (commutative,
// idempotent) and degree counters are sums, so any apply order yields
// register state byte-identical to sequential ingest of the same edge
// multiset — the same argument that already covers applyShards, now
// carried across batches. For deletion-capable stores the per-register
// op ORDER matters; those stores are single-writer (DynamicStore) and
// never run a pipeline, and the batched WAL replay flushes the pipeline
// before every KindDelete batch (see wal.RecoverBatched), so every
// register still observes its ops in log order.
//
// Publish comes in two flavors:
//
//   - sync: the producer blocks until all owners finished its batch.
//     IngestBatch uses this, so every caller-visible contract is
//     unchanged — when the call returns the batch is
//     applied, which is exactly what the Durable log-before-apply path
//     and the Checkpoint/ScoreBatch quiesce points rely on.
//   - async: the producer returns after enqueueing; flush() is the
//     barrier. WAL replay uses this so the reader goroutine can decode
//     the next record while the owners apply the previous one.
//
// Each ring is a bounded MPSC queue in the style of Vyukov's bounded
// MPMC ring: slots carry a sequence number; producers claim a slot by
// CAS on the tail, the single consumer advances the head with plain
// stores into its own slots. A full ring makes the producer spin with
// Gosched (counted in the stalls gauge) — backpressure, not loss.

// pipeDefaultRing is the default per-owner ring capacity, in batches.
// At the server's 4096-edge ingest batches this bounds queued work per
// owner to ~1M edge-halves, a few MB of scratch.
const pipeDefaultRing = 256

// pipeSlot is one ring slot. seq is the Vyukov sequence: slot i starts
// at i; a producer may claim position pos when seq == pos and publishes
// by storing seq = pos+1; the consumer reads at pos when seq == pos+1
// and frees by storing seq = pos+ringSize.
type pipeSlot struct {
	seq atomic.Uint64
	sc  *batchScratch
}

// pipeRing is the bounded MPSC ring. Only the owner goroutine calls
// dequeue; any producer may call enqueue.
type pipeRing struct {
	slots []pipeSlot
	mask  uint64
	tail  atomic.Uint64 // next position producers will claim
	head  atomic.Uint64 // next position the consumer will read
}

func newPipeRing(size int) *pipeRing {
	r := &pipeRing{slots: make([]pipeSlot, size), mask: uint64(size - 1)}
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
	return r
}

// enqueue publishes sc at the ring's tail. Returns false when the ring
// is full; the caller decides how to back off.
func (r *pipeRing) enqueue(sc *batchScratch) bool {
	for {
		pos := r.tail.Load()
		slot := &r.slots[pos&r.mask]
		seq := slot.seq.Load()
		if seq == pos {
			if r.tail.CompareAndSwap(pos, pos+1) {
				slot.sc = sc
				slot.seq.Store(pos + 1)
				return true
			}
			continue // lost the claim race; retry at the new tail
		}
		if seq < pos {
			return false // slot still held by the consumer: full
		}
		// seq > pos: another producer advanced the tail; retry.
	}
}

// dequeue pops the batch at the ring's head. Single-consumer: only the
// owner goroutine may call it.
func (r *pipeRing) dequeue() (*batchScratch, bool) {
	pos := r.head.Load()
	slot := &r.slots[pos&r.mask]
	if slot.seq.Load() != pos+1 {
		return nil, false
	}
	sc := slot.sc
	slot.sc = nil
	slot.seq.Store(pos + uint64(len(r.slots)))
	r.head.Store(pos + 1)
	return sc, true
}

// depth is the approximate number of queued batches (stats only).
func (r *pipeRing) depth() int {
	d := int64(r.tail.Load()) - int64(r.head.Load())
	if d < 0 {
		d = 0
	}
	return int(d)
}

// pipeOwner is one apply goroutine's state: its ring, its park/wake
// channel, and its idle gauge.
type pipeOwner struct {
	ring *pipeRing
	// wake has capacity 1: a producer that finds the owner sleeping
	// drops one token; extra tokens are discarded, a stale token costs
	// one spurious wake. sleeping is the Dekker flag that closes the
	// lost-wakeup window (see signal / ownerLoop).
	wake     chan struct{}
	sleeping atomic.Bool
	parks    atomic.Int64
}

// PipelineStats is the observability snapshot of a running pipeline,
// exported through /metrics (see internal/server).
type PipelineStats struct {
	// Workers is the number of owner goroutines.
	Workers int
	// RingCapacity is the per-owner ring size, in batches.
	RingCapacity int
	// RingDepths[o] is the approximate number of batches queued on
	// owner o's ring at snapshot time.
	RingDepths []int
	// Stalls counts producer spins on a full ring since the pipeline
	// started (backpressure events, not lost batches).
	Stalls int64
	// OwnerParks counts owner goroutines going idle (parking on an
	// empty ring) since the pipeline started.
	OwnerParks int64
	// Outstanding is the number of async-published batches not yet
	// fully applied.
	Outstanding int64
	// MemoryBytes is the pipeline's own footprint: ring slot arrays
	// plus the scratch buffers of batches currently in flight.
	MemoryBytes int64
}

// pipeline fans prepared batches out to shard-owner goroutines. One
// pipeline serves one store; apply(sc, owner, workers) must apply every
// non-empty shard s ≡ owner (mod workers) of the prepared scratch.
type pipeline struct {
	nShards int
	apply   func(sc *batchScratch, owner, workers int)
	owners  []*pipeOwner
	quit    chan struct{}
	wg      sync.WaitGroup

	closing      atomic.Bool
	producers    atomic.Int64
	outstanding  atomic.Int64
	stalls       atomic.Int64
	scratchBytes atomic.Int64

	flushMu sync.Mutex
	flushCv *sync.Cond
}

// resolvePipelineWorkers maps the user-facing workers knob to an owner
// count: 0 means auto (GOMAXPROCS, but stay synchronous — return 0 —
// when that is 1, where owner goroutines can only add scheduling
// overhead); > 0 forces that many owners even on a single-proc host
// (how tests exercise the pipeline anywhere); < 0 disables. The result
// is capped by the shard count.
func resolvePipelineWorkers(workers, nShards int) int {
	if workers < 0 {
		return 0
	}
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
		if workers <= 1 {
			return 0
		}
	}
	if workers > nShards {
		workers = nShards
	}
	return workers
}

// newPipeline builds a pipeline with the given owner count and ring
// capacity (rounded up to a power of two; <= 0 selects the default)
// and starts the owner goroutines.
func newPipeline(nShards, workers, ringSize int, apply func(sc *batchScratch, owner, workers int)) *pipeline {
	if ringSize <= 0 {
		ringSize = pipeDefaultRing
	}
	size := 1
	for size < ringSize {
		size <<= 1
	}
	p := &pipeline{
		nShards: nShards,
		apply:   apply,
		owners:  make([]*pipeOwner, workers),
		quit:    make(chan struct{}),
	}
	p.flushCv = sync.NewCond(&p.flushMu)
	for o := range p.owners {
		p.owners[o] = &pipeOwner{ring: newPipeRing(size), wake: make(chan struct{}, 1)}
	}
	p.wg.Add(workers)
	for o := range p.owners {
		go p.ownerLoop(o)
	}
	return p
}

// enter registers the caller as a producer. It returns false when the
// pipeline is shutting down, in which case the caller must fall back to
// the synchronous path. Every successful enter must be paired with
// exit after the publish completes.
func (p *pipeline) enter() bool {
	if p.closing.Load() {
		return false
	}
	p.producers.Add(1)
	if p.closing.Load() {
		// stop() won the race; it is waiting for the producer count to
		// drain, so undo the registration and fall back.
		p.producers.Add(-1)
		return false
	}
	return true
}

func (p *pipeline) exit() { p.producers.Add(-1) }

// ownerHasWork reports whether any shard owned by o has vertices in the
// prepared batch.
func (p *pipeline) ownerHasWork(sc *batchScratch, o int) bool {
	starts := sc.vertGroup.starts
	for s := o; s < p.nShards; s += len(p.owners) {
		if starts[s+1] > starts[s] {
			return true
		}
	}
	return false
}

// publishBatch hands a prepared scratch (stages 1–3 done, at least one
// non-empty shard) to every owner with work. With wait it blocks until
// all owners finished, and the caller still owns the scratch on return;
// without it the last owner recycles the scratch and flush() is the
// barrier.
//
// done (non-nil only on the cancellable sync path) is polled while the
// producer spins on a full first ring: up to that point nothing has
// been enqueued, so the publish can be withdrawn whole — publishBatch
// returns false and the caller still owns the (unapplied) scratch. The
// moment any owner holds the batch, delivery always completes: refs are
// preset for the full fan-out, and a partial batch would break the
// byte-identical-to-sequential contract.
func (p *pipeline) publishBatch(sc *batchScratch, wait bool, done <-chan struct{}) bool {
	sc.pubOwners = sc.pubOwners[:0]
	for o := range p.owners {
		if p.ownerHasWork(sc, o) {
			sc.pubOwners = append(sc.pubOwners, int32(o))
		}
	}
	sc.async = !wait
	sc.footprint = sc.memoryFootprint()
	sc.refs.Store(int32(len(sc.pubOwners)))
	if wait && sc.done == nil {
		sc.done = make(chan struct{}, 1)
	}
	if !wait {
		p.outstanding.Add(1)
	}
	p.scratchBytes.Add(sc.footprint)
	for i, o := range sc.pubOwners {
		abortable := wait && i == 0 && done != nil
		if !p.enqueueOwner(int(o), sc, done, abortable) {
			// Nothing enqueued: withdraw the publish bookkeeping.
			p.scratchBytes.Add(-sc.footprint)
			return false
		}
	}
	if wait {
		<-sc.done
	}
	return true
}

// enqueueOwner publishes sc on owner o's ring, spinning (with Gosched,
// counted as a stall) while the ring is full, then wakes the owner if
// it is parked. With abortable set, a fired done channel ends the spin
// and reports false instead — the backpressure loop is the one place a
// cancelled producer could otherwise burn CPU indefinitely.
func (p *pipeline) enqueueOwner(o int, sc *batchScratch, done <-chan struct{}, abortable bool) bool {
	ow := p.owners[o]
	for !ow.ring.enqueue(sc) {
		if abortable {
			select {
			case <-done:
				return false
			default:
			}
		}
		p.stalls.Add(1)
		p.signal(ow) // consumer may be parked with a full ring
		runtime.Gosched()
	}
	p.signal(ow)
	return true
}

// signal wakes ow if it is parked. The producer's enqueue (seq store)
// precedes the sleeping load, and the owner's sleeping store precedes
// its re-check dequeue; Go atomics are sequentially consistent, so at
// least one side observes the other — the owner sees the batch or the
// producer sees sleeping and drops a token. Lost wakeups are therefore
// impossible; a stale token merely causes one spurious wake.
func (p *pipeline) signal(ow *pipeOwner) {
	if ow.sleeping.Load() {
		select {
		case ow.wake <- struct{}{}:
		default:
		}
	}
}

// ownerLoop is owner o's goroutine: drain the ring; when empty, park
// until a producer signals or the pipeline stops. On stop it drains the
// ring completely before exiting (stop() has already waited out the
// producers, so the ring cannot refill).
func (p *pipeline) ownerLoop(o int) {
	defer p.wg.Done()
	ow := p.owners[o]
	for {
		if sc, ok := ow.ring.dequeue(); ok {
			p.runBatch(sc, o)
			continue
		}
		ow.sleeping.Store(true)
		if sc, ok := ow.ring.dequeue(); ok { // re-check: see signal
			ow.sleeping.Store(false)
			p.runBatch(sc, o)
			continue
		}
		ow.parks.Add(1)
		select {
		case <-ow.wake:
			ow.sleeping.Store(false)
		case <-p.quit:
			ow.sleeping.Store(false)
			for {
				sc, ok := ow.ring.dequeue()
				if !ok {
					return
				}
				p.runBatch(sc, o)
			}
		}
	}
}

// runBatch applies owner o's shards of sc and counts down the batch's
// owner refs. The last owner out completes the batch: it hands a sync
// batch back to its waiting producer, or recycles an async batch and
// wakes flush() waiters when it was the last outstanding one.
func (p *pipeline) runBatch(sc *batchScratch, o int) {
	p.apply(sc, o, len(p.owners))
	if sc.refs.Add(-1) != 0 {
		return
	}
	p.scratchBytes.Add(-sc.footprint)
	if !sc.async {
		sc.done <- struct{}{} // producer owns sc again after this send
		return
	}
	sc.async = false
	batchPool.Put(sc)
	if p.outstanding.Add(-1) == 0 {
		p.flushMu.Lock()
		p.flushCv.Broadcast()
		p.flushMu.Unlock()
	}
}

// flush blocks until every async-published batch has been fully
// applied. (Sync publishes are their own barrier.) The decrement to
// zero in runBatch broadcasts under flushMu, and the wait loop checks
// under flushMu, so the wakeup cannot be lost.
func (p *pipeline) flush() {
	p.flushMu.Lock()
	for p.outstanding.Load() != 0 {
		p.flushCv.Wait()
	}
	p.flushMu.Unlock()
}

// stop shuts the pipeline down: refuse new producers, wait out the ones
// already publishing, then stop the owners, which drain their rings
// before exiting. On return every published batch — sync or async —
// has been applied (stop implies flush).
func (p *pipeline) stop() {
	p.closing.Store(true)
	for p.producers.Load() != 0 {
		runtime.Gosched()
	}
	close(p.quit)
	for _, ow := range p.owners {
		select {
		case ow.wake <- struct{}{}:
		default:
		}
	}
	p.wg.Wait()
}

// memoryBytes is the pipeline's own footprint: the ring slot arrays
// plus the scratch buffers of batches currently in flight. Counted into
// the owning store's MemoryBytes while the pipeline runs.
func (p *pipeline) memoryBytes() int64 {
	ring := int64(0)
	for _, ow := range p.owners {
		ring += int64(len(ow.ring.slots)) * pipeSlotBytes
	}
	return ring + p.scratchBytes.Load()
}

// stats snapshots the pipeline's gauges.
func (p *pipeline) stats() PipelineStats {
	st := PipelineStats{
		Workers:      len(p.owners),
		RingCapacity: len(p.owners[0].ring.slots),
		RingDepths:   make([]int, len(p.owners)),
		Stalls:       p.stalls.Load(),
		Outstanding:  p.outstanding.Load(),
		MemoryBytes:  p.memoryBytes(),
	}
	for o, ow := range p.owners {
		st.RingDepths[o] = ow.ring.depth()
		st.OwnerParks += ow.parks.Load()
	}
	return st
}
