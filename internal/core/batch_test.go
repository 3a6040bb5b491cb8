package core

import (
	"sync"
	"testing"

	"linkpred/internal/hashing"
	"linkpred/internal/rng"
	"linkpred/internal/stream"
)

// raceEnabled is set by race_enabled_test.go under -race; the
// AllocsPerRun tests are skipped there because race instrumentation
// itself allocates (e.g. inside sync.Pool).
var raceEnabled bool

// shardedRegistersEqual asserts that the sharded store holds exactly the
// register state of the sequential plain store: same vertex set, and for
// every vertex identical register values, argmin ids, and arrival
// counters. This is the batched-ingest determinism contract — batching
// must be invisible at the register level, not merely at the estimator
// level.
func shardedRegistersEqual(t *testing.T, s *Sharded, plain *SketchStore) {
	t.Helper()
	total := 0
	for si, shard := range s.shards {
		total += len(shard.vertices)
		for u, vs := range shard.vertices {
			want := plain.vertices[u]
			if want == nil {
				t.Fatalf("shard %d has vertex %d unknown to the sequential store", si, u)
			}
			if vs.arrivals != want.arrivals {
				t.Fatalf("vertex %d: arrivals %d != %d", u, vs.arrivals, want.arrivals)
			}
			gotVals, gotIDs := shard.bank.regs(vs.slot), shard.bank.argmins(vs.slot)
			wantVals, wantIDs := plain.bank.regs(want.slot), plain.bank.argmins(want.slot)
			for i := range gotVals {
				if gotVals[i] != wantVals[i] {
					t.Fatalf("vertex %d register %d: val %d != %d", u, i, gotVals[i], wantVals[i])
				}
				if gotVals[i] != emptyRegister && gotIDs[i] != wantIDs[i] {
					t.Fatalf("vertex %d register %d: argmin %d != %d", u, i, gotIDs[i], wantIDs[i])
				}
			}
		}
	}
	if total != plain.NumVertices() {
		t.Fatalf("sharded holds %d vertices, sequential %d", total, plain.NumVertices())
	}
}

// TestProcessEdgesMatchesSequential is the determinism test of the batch
// pipeline: batched ingest must produce sketches register-identical to
// sequential single-edge ingest of the same stream, for any shard count
// and batch size (including batches with self-loops and duplicates).
func TestProcessEdgesMatchesSequential(t *testing.T) {
	edges := randomEdges(300, 6000, 20251)
	// Sprinkle self-loops and duplicates: the pipeline must skip the
	// former and idempotently absorb the latter.
	for i := 0; i < len(edges); i += 97 {
		edges[i].V = edges[i].U
	}
	edges = append(edges, edges[:50]...)
	cfg := Config{K: 48, Seed: 20253}
	plain, err := NewSketchStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		plain.ProcessEdge(e)
	}
	wantEdges := plain.NumEdges()
	for _, nShards := range []int{1, 3, 8} {
		for _, batch := range []int{1, 7, 256, len(edges)} {
			s, err := NewSharded(cfg, nShards)
			if err != nil {
				t.Fatal(err)
			}
			for lo := 0; lo < len(edges); lo += batch {
				hi := lo + batch
				if hi > len(edges) {
					hi = len(edges)
				}
				s.IngestBatch(edges[lo:hi], nil)
			}
			if s.NumEdges() != wantEdges {
				t.Fatalf("shards=%d batch=%d: NumEdges %d != %d", nShards, batch, s.NumEdges(), wantEdges)
			}
			shardedRegistersEqual(t, s, plain)
		}
	}
}

// TestProcessEdgesMatchesPerEdgeKMV covers the distinct-degree mode and
// tabulation hashing (the dispatch-based slow hash path) through the
// batch pipeline.
func TestProcessEdgesMatchesPerEdgeKMV(t *testing.T) {
	edges := randomEdges(120, 3000, 20257)
	cfg := Config{K: 32, Seed: 20261, Degrees: DegreeDistinctKMV, Hash: hashing.KindTabulation}
	plain, err := NewSketchStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		plain.ProcessEdge(e)
	}
	s, err := NewSharded(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	s.IngestBatch(edges, nil)
	shardedRegistersEqual(t, s, plain)
	x := rng.NewXoshiro256(20263)
	for i := 0; i < 200; i++ {
		u, v := uint64(x.Intn(120)), uint64(x.Intn(120))
		if a, b := est(s, QueryCommonNeighbors, u, v), est(plain, QueryCommonNeighbors, u, v); a != b {
			t.Fatalf("CN(%d,%d): %v != %v", u, v, a, b)
		}
		if a, b := s.Degree(u), plain.Degree(u); a != b {
			t.Fatalf("Degree(%d): %v != %v", u, a, b)
		}
	}
}

// TestProcessArcsMatchesSequential is the directed determinism test:
// batched arc ingest must match the sequential DirectedStore register
// for register.
func TestProcessArcsMatchesSequential(t *testing.T) {
	arcs := randomEdges(200, 5000, 20269)
	cfg := Config{K: 32, Seed: 20271}
	plain, err := NewDirectedStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range arcs {
		plain.ProcessArc(a)
	}
	for _, nShards := range []int{1, 4} {
		for _, batch := range []int{3, 512} {
			s, err := NewShardedDirected(cfg, nShards)
			if err != nil {
				t.Fatal(err)
			}
			for lo := 0; lo < len(arcs); lo += batch {
				hi := lo + batch
				if hi > len(arcs) {
					hi = len(arcs)
				}
				s.IngestBatch(arcs[lo:hi], nil)
			}
			if s.NumArcs() != plain.NumArcs() {
				t.Fatalf("shards=%d batch=%d: NumArcs %d != %d", nShards, batch, s.NumArcs(), plain.NumArcs())
			}
			total := 0
			for _, shard := range s.shards {
				total += len(shard.vertices)
				for u, vs := range shard.vertices {
					want := plain.vertices[u]
					if want == nil {
						t.Fatalf("vertex %d unknown to sequential store", u)
					}
					if vs.outArr != want.outArr || vs.inArr != want.inArr {
						t.Fatalf("vertex %d: arrivals (%d,%d) != (%d,%d)", u, vs.outArr, vs.inArr, want.outArr, want.inArr)
					}
					gotOut, gotIn := shard.out.regs(vs.outSlot), shard.in.regs(vs.inSlot)
					wantOut, wantIn := plain.out.regs(want.outSlot), plain.in.regs(want.inSlot)
					for i := range gotOut {
						if gotOut[i] != wantOut[i] || gotIn[i] != wantIn[i] {
							t.Fatalf("vertex %d register %d: out/in values diverge", u, i)
						}
					}
				}
			}
			if total != plain.NumVertices() {
				t.Fatalf("vertex counts diverge: %d != %d", total, plain.NumVertices())
			}
		}
	}
}

// TestProcessEdgesEdgeCases: empty batches, all-self-loop batches, and
// single-edge batches must be safe and correctly counted.
func TestProcessEdgesEdgeCases(t *testing.T) {
	s, err := NewSharded(Config{K: 8, Seed: 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	s.IngestBatch(nil, nil)
	s.IngestBatch([]stream.Edge{}, nil)
	s.IngestBatch([]stream.Edge{{U: 7, V: 7}, {U: 9, V: 9}}, nil)
	if s.NumEdges() != 0 || s.NumVertices() != 0 {
		t.Fatalf("self-loop-only batches must be no-ops: edges=%d vertices=%d", s.NumEdges(), s.NumVertices())
	}
	s.IngestBatch([]stream.Edge{{U: 1, V: 2}}, nil)
	if s.NumEdges() != 1 || !s.Knows(1) || !s.Knows(2) {
		t.Fatal("single-edge batch not ingested")
	}
	d, err := NewShardedDirected(Config{K: 8, Seed: 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	d.IngestBatch(nil, nil)
	d.IngestBatch([]stream.Edge{{U: 5, V: 5}}, nil)
	if d.NumArcs() != 0 {
		t.Fatal("self-loop arc batch must be a no-op")
	}
}

// TestProcessEdgesConcurrentWriters: several goroutines batch-ingesting
// disjoint chunks (mixed with per-edge writers) must together produce
// the same registers as sequential ingest — MinHash updates commute, and
// the per-shard groups from different batches interleave safely.
func TestProcessEdgesConcurrentWriters(t *testing.T) {
	edges := randomEdges(250, 8000, 20287)
	cfg := Config{K: 32, Seed: 20289}
	plain, err := NewSketchStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		plain.ProcessEdge(e)
	}
	s, err := NewSharded(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 6
	var wg sync.WaitGroup
	chunk := len(edges) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if w == workers-1 {
			hi = len(edges)
		}
		wg.Add(1)
		go func(part []stream.Edge, batched bool) {
			defer wg.Done()
			if batched {
				for lo := 0; lo < len(part); lo += 100 {
					hi := lo + 100
					if hi > len(part) {
						hi = len(part)
					}
					s.IngestBatch(part[lo:hi], nil)
				}
			} else {
				for _, e := range part {
					s.ProcessEdge(e)
				}
			}
		}(edges[lo:hi], w%2 == 0)
	}
	wg.Wait()
	if s.NumEdges() != int64(len(edges)) {
		t.Fatalf("NumEdges = %d, want %d", s.NumEdges(), len(edges))
	}
	shardedRegistersEqual(t, s, plain)
}

// TestShardedBatchRaceStress mixes concurrent batch writers, weighted
// estimators, and accounting reads; under -race this validates the whole
// pipeline's locking discipline. Guarded by -short so CI stays fast.
func TestShardedBatchRaceStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	edges := randomEdges(150, 12000, 20297)
	s, err := NewSharded(Config{K: 32, Seed: 20323}, 6)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	// Batch writers.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			for lo := off * 6000; lo < (off+1)*6000; lo += 256 {
				hi := lo + 256
				if hi > (off+1)*6000 {
					hi = (off + 1) * 6000
				}
				s.IngestBatch(edges[lo:hi], nil)
			}
		}(w)
	}
	// A per-edge writer alongside.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, e := range edges[:2000] {
			s.ProcessEdge(e)
		}
	}()
	// Weighted-query readers (exercise the pooled matched-id buffers).
	for q := 0; q < 2; q++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			x := rng.NewXoshiro256(seed)
			for i := 0; i < 3000; i++ {
				u, v := uint64(x.Intn(150)), uint64(x.Intn(150))
				if aa := est(s, QueryAdamicAdar, u, v); aa < 0 {
					t.Errorf("AA(%d,%d) = %v mid-ingest", u, v, aa)
					return
				}
				if ra := est(s, QueryResourceAllocation, u, v); ra < 0 {
					t.Errorf("RA(%d,%d) = %v mid-ingest", u, v, ra)
					return
				}
			}
		}(uint64(q) + 20333)
	}
	// Accounting readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			if s.NumVertices() < 0 || s.MemoryBytes() < 0 {
				t.Error("accounting went negative mid-ingest")
				return
			}
		}
	}()
	wg.Wait()
	if s.NumEdges() != int64(len(edges)+2000) {
		t.Fatalf("NumEdges = %d, want %d", s.NumEdges(), len(edges)+2000)
	}
}

// TestEstimateWeightedNoAlloc pins the weighted-query hot path at zero
// allocations: the matched-id buffer comes from a pool and the weight
// selection is an enum, not a closure.
func TestEstimateWeightedNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	edges := randomEdges(60, 2000, 20341)
	s, err := NewSharded(Config{K: 64, Seed: 20347}, 4)
	if err != nil {
		t.Fatal(err)
	}
	s.IngestBatch(edges, nil)
	var sink float64
	allocs := testing.AllocsPerRun(200, func() {
		sink += est(s, QueryAdamicAdar, 11, 13)
		sink += est(s, QueryResourceAllocation, 17, 19)
		sink += est(s, QueryAdamicAdar, 1, 999) // unknown pair: early-return path
	})
	if allocs != 0 {
		t.Errorf("weighted estimators allocate %.1f per run, want 0", allocs)
	}
	_ = sink
}

// TestProcessEdgeNoAllocSteadyState: the single-edge concurrent path
// must also be allocation-free once the touched vertices exist (hashing
// now happens in a pooled caller-side buffer, not under the lock).
func TestProcessEdgeNoAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	s, err := NewSharded(Config{K: 64, Seed: 20353}, 4)
	if err != nil {
		t.Fatal(err)
	}
	warm := randomEdges(50, 500, 20357)
	for _, e := range warm {
		s.ProcessEdge(e)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		s.ProcessEdge(warm[i%len(warm)])
		i++
	})
	if allocs != 0 {
		t.Errorf("steady-state ProcessEdge allocates %.1f per run, want 0", allocs)
	}
}
