package core

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"

	"linkpred/internal/rng"
	"linkpred/internal/stream"
)

// The KMV degree memo (degMemo) is derived state: whatever sequence of
// applies, promotions, deletes, loads and reads a vertex has seen, its
// memoized degree must be bit-identical to a fresh kmvDistinct over its
// current registers and arrival counter. These tests drive every apply
// path with memos warmed between steps — so a path that forgot to
// invalidate leaves a stale estimate the next check catches.

// memoCase is one store under test: apply runs one random op, fill
// warms memos (through the per-vertex degree path or the batched
// ScoreBatch path, alternately), and check compares every vertex's
// served degree with a fresh recomputation.
type memoCase struct {
	apply func(x *rng.Xoshiro256, edges []stream.Edge)
	fill  func(step int)
	check func(t *testing.T)
}

// memoKMVCfg returns a distinct-degree config, tiered when ladder is
// set (testLadder: 8/16/32 registers, promotions at 5 and 20 arrivals).
func memoKMVCfg(seed uint64, ladder bool) Config {
	cfg := Config{K: 32, Seed: seed, Degrees: DegreeDistinctKMV}
	if ladder {
		cfg.Tiers = testLadder()
	}
	return cfg
}

// memoVerts lists the candidate ids the fill step scores: every id the
// random streams can produce, plus two unknown ones.
func memoVerts(n int) []uint64 {
	vs := make([]uint64, n+2)
	for i := range vs {
		vs[i] = uint64(i)
	}
	return vs
}

func wantBits(t *testing.T, label string, u uint64, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: vertex %d degree %v (bits %#x), fresh KMV %v (bits %#x)",
			label, u, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// checkShardedMemo asserts the memo invariant on every vertex of s.
func checkShardedMemo(t *testing.T, s *Sharded) {
	t.Helper()
	for _, sh := range s.shards {
		for u, vs := range sh.vertices {
			wantBits(t, "sharded", u, s.Degree(u), kmvDistinct(sh.bank.regs(vs.slot), vs.arrivals))
		}
	}
}

// checkSketchMemo asserts the memo invariant on every vertex of s.
func checkSketchMemo(t *testing.T, s *SketchStore) {
	t.Helper()
	for u, vs := range s.vertices {
		wantBits(t, "plain", u, s.Degree(u), kmvDistinct(s.bank.regs(vs.slot), vs.arrivals))
	}
}

// freshSide is sideDegree without the memo.
func freshSide(vals []uint64, arrivals int64) float64 {
	if arrivals == 0 {
		return 0
	}
	return kmvDistinct(vals, arrivals)
}

func checkDirectedMemo(t *testing.T, s *DirectedStore, out, in func(uint64) float64) {
	t.Helper()
	for u, vs := range s.vertices {
		wantBits(t, "directed out", u, out(u), freshSide(s.out.regs(vs.outSlot), vs.outArr))
		wantBits(t, "directed in", u, in(u), freshSide(s.in.regs(vs.inSlot), vs.inArr))
	}
}

func checkDynamicMemo(t *testing.T, s *DynamicStore) {
	t.Helper()
	for u, vs := range s.vertices {
		want := 0.0
		if vs.arrivals > 0 {
			vals := make([]uint64, vs.k())
			s.fillRegs(vs, vals)
			want = kmvDistinct(vals, vs.arrivals)
		}
		wantBits(t, "dynamic", u, s.Degree(u), want)
	}
}

// scoreFill warms memos through a batched query: preferential
// attachment reads every candidate's degree and the source's.
func scoreFill(t *testing.T, sb func(QueryMeasure, uint64, []uint64, []float64, <-chan struct{}) ([]float64, error), verts []uint64, step int) {
	t.Helper()
	if _, err := sb(QueryPreferentialAttachment, verts[step%len(verts)], verts, nil, nil); err != nil {
		t.Fatal(err)
	}
}

// chunked applies edges in batches of 1..maxBatch through apply.
func chunked(x *rng.Xoshiro256, edges []stream.Edge, maxBatch int, apply func([]stream.Edge)) {
	for lo := 0; lo < len(edges); {
		hi := min(lo+1+x.Intn(maxBatch), len(edges))
		apply(edges[lo:hi])
		lo = hi
	}
}

func TestDegreeMemoMatchesFreshKMV(t *testing.T) {
	const nVerts = 48
	verts := memoVerts(nVerts)

	shardedCase := func(t *testing.T, ladder, pipelined bool) memoCase {
		s, err := NewSharded(memoKMVCfg(71, ladder), 4)
		if err != nil {
			t.Fatal(err)
		}
		if pipelined {
			if !s.StartPipeline(2, 0) { // forced owners, even at GOMAXPROCS=1
				t.Fatal("StartPipeline refused")
			}
			t.Cleanup(s.StopPipeline)
		}
		return memoCase{
			apply: func(x *rng.Xoshiro256, edges []stream.Edge) {
				switch x.Intn(4) {
				case 0: // per-edge
					for _, e := range edges {
						s.ProcessEdge(e)
					}
				case 1: // batched (pipelined when owners run)
					chunked(x, edges, 64, func(b []stream.Edge) { s.IngestBatch(b, nil) })
				case 2: // WAL replay: async publish, then the flush barrier
					chunked(x, edges, 64, s.ProcessEdgesAsync)
					s.FlushIngest()
				case 3: // snapshot round trip, then keep ingesting the image
					var buf bytes.Buffer
					if err := s.Save(&buf); err != nil {
						t.Fatal(err)
					}
					loaded, err := LoadSharded(&buf)
					if err != nil {
						t.Fatal(err)
					}
					if pipelined {
						s.StopPipeline()
						if !loaded.StartPipeline(2, 0) {
							t.Fatal("StartPipeline refused")
						}
						t.Cleanup(loaded.StopPipeline)
					}
					s = loaded
					s.IngestBatch(edges, nil)
				}
			},
			fill: func(step int) {
				if step%2 == 0 {
					scoreFill(t, s.ScoreBatch, verts, step)
					return
				}
				for _, u := range verts {
					s.Degree(u)
				}
			},
			check: func(t *testing.T) { checkShardedMemo(t, s) },
		}
	}

	plainCase := func(t *testing.T, cfg Config) memoCase {
		s, err := NewSketchStore(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return memoCase{
			apply: func(x *rng.Xoshiro256, edges []stream.Edge) {
				if x.Intn(3) == 0 { // snapshot round trip
					var buf bytes.Buffer
					if err := s.Save(&buf); err != nil {
						t.Fatal(err)
					}
					loaded, err := LoadSketchStore(&buf)
					if err != nil {
						t.Fatal(err)
					}
					s = loaded
				}
				s.IngestBatch(edges, nil)
			},
			fill: func(step int) {
				if step%2 == 0 {
					scoreFill(t, s.ScoreBatch, verts, step)
					return
				}
				for _, u := range verts {
					s.Degree(u)
				}
			},
			check: func(t *testing.T) { checkSketchMemo(t, s) },
		}
	}

	dynamicCase := func(t *testing.T, ladder bool) memoCase {
		// Depth 2 underflows quickly, so deletes degrade registers too.
		s, err := NewDynamicStore(memoKMVCfg(79, ladder), 2)
		if err != nil {
			t.Fatal(err)
		}
		var live []stream.Edge
		return memoCase{
			apply: func(x *rng.Xoshiro256, edges []stream.Edge) {
				if x.Intn(3) == 0 && len(live) > 0 {
					n := min(len(edges), len(live))
					for i := 0; i < n; i++ {
						j := x.Intn(len(live))
						s.DeleteEdge(live[j])
						live[j] = live[len(live)-1]
						live = live[:len(live)-1]
					}
					return
				}
				if x.Intn(4) == 0 { // snapshot round trip
					var buf bytes.Buffer
					if err := s.Save(&buf); err != nil {
						t.Fatal(err)
					}
					loaded, err := LoadDynamicStore(&buf)
					if err != nil {
						t.Fatal(err)
					}
					s = loaded
				}
				s.IngestBatch(edges, nil)
				live = append(live, edges...)
			},
			fill: func(step int) {
				if step%2 == 0 {
					scoreFill(t, s.ScoreBatch, verts, step)
					return
				}
				for _, u := range verts {
					s.Degree(u)
				}
			},
			check: func(t *testing.T) { checkDynamicMemo(t, s) },
		}
	}

	directedCase := func(t *testing.T, ladder bool) memoCase {
		plain, err := NewDirectedStore(memoKMVCfg(83, ladder))
		if err != nil {
			t.Fatal(err)
		}
		sh, err := NewShardedDirected(memoKMVCfg(83, ladder), 4)
		if err != nil {
			t.Fatal(err)
		}
		return memoCase{
			apply: func(x *rng.Xoshiro256, edges []stream.Edge) {
				for _, e := range edges {
					plain.ProcessArc(e)
				}
				if x.Intn(2) == 0 {
					for _, e := range edges {
						sh.ProcessArc(e)
					}
				} else {
					chunked(x, edges, 64, func(b []stream.Edge) { sh.IngestBatch(b, nil) })
				}
			},
			fill: func(step int) {
				if step%2 == 0 {
					scoreFill(t, sh.ScoreBatch, verts, step)
				}
				for _, u := range verts {
					plain.OutDegree(u)
					plain.InDegree(u)
					if step%2 != 0 {
						sh.OutDegree(u)
						sh.InDegree(u)
					}
				}
			},
			check: func(t *testing.T) {
				checkDirectedMemo(t, plain, plain.OutDegree, plain.InDegree)
				for _, shard := range sh.shards {
					checkDirectedMemo(t, shard, sh.OutDegree, sh.InDegree)
				}
			},
		}
	}

	cases := []struct {
		name string
		mk   func(t *testing.T) memoCase
	}{
		{"sharded", func(t *testing.T) memoCase { return shardedCase(t, false, false) }},
		{"sharded-pipelined", func(t *testing.T) memoCase { return shardedCase(t, false, true) }},
		{"sharded-tiered", func(t *testing.T) memoCase { return shardedCase(t, true, false) }},
		{"sharded-tiered-pipelined", func(t *testing.T) memoCase { return shardedCase(t, true, true) }},
		{"plain", func(t *testing.T) memoCase { return plainCase(t, memoKMVCfg(73, false)) }},
		{"plain-tiered", func(t *testing.T) memoCase { return plainCase(t, memoKMVCfg(73, true)) }},
		{"plain-biased-triangles", func(t *testing.T) memoCase {
			// Both options read degrees in the middle of ProcessEdge.
			cfg := memoKMVCfg(73, false)
			cfg.EnableBiased, cfg.TrackTriangles = true, true
			return plainCase(t, cfg)
		}},
		{"dynamic", func(t *testing.T) memoCase { return dynamicCase(t, false) }},
		{"dynamic-tiered", func(t *testing.T) memoCase { return dynamicCase(t, true) }},
		{"directed", func(t *testing.T) memoCase { return directedCase(t, false) }},
		{"directed-tiered", func(t *testing.T) memoCase { return directedCase(t, true) }},
	}
	for ci, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			mc := c.mk(t)
			x := rng.NewXoshiro256(uint64(9001 + ci))
			for step := 0; step < 60; step++ {
				// A small id space keeps every vertex hot: most steps
				// touch vertices whose memos the previous fill warmed.
				edges := randomEdges(nVerts, 1+x.Intn(40), x.Uint64())
				mc.apply(x, edges)
				mc.check(t)
				mc.fill(step)
				mc.check(t)
			}
		})
	}
}

// TestDegreeMemoRacesWriter: two distinct-degree ScoreBatch readers
// score the same hub-heavy candidate list — every candidate's memo is
// filled concurrently by both — while a writer ingests edges into those
// same vertices, clearing the memos under the shard write locks. Run
// with -race (CI's race job runs it in -short mode, so it is never
// skipped). Once the writer stops, every memo left behind must equal a
// fresh recomputation: a fill that raced an apply would show here.
func TestDegreeMemoRacesWriter(t *testing.T) {
	const hubs = 12
	x := rng.NewXoshiro256(4242)
	edges := make([]stream.Edge, 4000)
	for i := range edges {
		// Every edge touches a hub, so the writer keeps invalidating
		// exactly the memos the readers keep filling.
		u := uint64(x.Intn(hubs))
		v := uint64(hubs + x.Intn(300))
		edges[i] = stream.Edge{U: u, V: v, T: int64(i)}
	}
	cands := make([]uint64, 0, 600)
	for i := 0; i < 600; i++ {
		if i%2 == 0 {
			cands = append(cands, uint64(i%hubs)) // duplicates: the same memo twice per batch
		} else {
			cands = append(cands, uint64(hubs+i%300))
		}
	}
	cfg := Config{K: 64, Seed: 77, Degrees: DegreeDistinctKMV}
	sharded, err := NewSharded(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !sharded.StartPipeline(2, 0) {
		t.Fatal("StartPipeline refused")
	}
	defer sharded.StopPipeline()
	dir, err := NewShardedDirected(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	sharded.IngestBatch(edges[:400], nil)
	dir.IngestBatch(edges[:400], nil)

	measures := []QueryMeasure{QueryPreferentialAttachment, QueryCommonNeighbors, QueryAdamicAdar, QueryCosine}
	var wg sync.WaitGroup
	writer := func(apply func([]stream.Edge)) {
		defer wg.Done()
		for lo := 400; lo < len(edges); lo += 50 {
			apply(edges[lo:min(lo+50, len(edges))])
		}
	}
	reader := func(store scoreStore, seed int) {
		defer wg.Done()
		var out []float64
		for i := 0; i < 30; i++ {
			m := measures[(seed+i)%len(measures)]
			got, err := store.ScoreBatch(m, uint64((seed+i)%hubs), cands, out, nil)
			if err != nil {
				t.Error(err)
				return
			}
			if len(got) != len(cands) {
				t.Errorf("got %d scores, want %d", len(got), len(cands))
				return
			}
			out = got[:0]
		}
	}
	wg.Add(6)
	go writer(func(b []stream.Edge) { sharded.IngestBatch(b, nil) })
	go writer(func(b []stream.Edge) { dir.IngestBatch(b, nil) })
	go reader(sharded, 0)
	go reader(sharded, 1)
	go reader(dir, 2)
	go reader(dir, 3)
	wg.Wait()

	// Quiescent now: the memos the readers left must be current.
	for _, sh := range sharded.shards {
		for u, vs := range sh.vertices {
			if d, ok := vs.deg.cached(); ok {
				wantBits(t, "sharded memo after race", u, d, kmvDistinct(sh.bank.regs(vs.slot), vs.arrivals))
			}
		}
	}
	for _, sh := range dir.shards {
		for u, vs := range sh.vertices {
			if d, ok := vs.outDeg.cached(); ok {
				wantBits(t, "directed out memo after race", u, d, freshSide(sh.out.regs(vs.outSlot), vs.outArr))
			}
			if d, ok := vs.inDeg.cached(); ok {
				wantBits(t, "directed in memo after race", u, d, freshSide(sh.in.regs(vs.inSlot), vs.inArr))
			}
		}
	}
}

// BenchmarkScoreBatchDistinctDegrees is the /topk scoring shape under
// the lpserver default degree mode: k=128, DegreeDistinctKMV, 1000
// candidates, every measure. "cold" clears every memo before each op,
// so each candidate pays the k-Log1p KMV pass (the pre-memo cost);
// "warm" reads the memos the previous op left. Jaccard needs no degree,
// so its two rows should agree; the other five show the pass.
func BenchmarkScoreBatchDistinctDegrees(b *testing.B) {
	edges := coauthorStream(b, 42)
	s, err := NewSharded(Config{K: 128, Seed: 42, Degrees: DegreeDistinctKMV}, 8)
	if err != nil {
		b.Fatal(err)
	}
	deg := make(map[uint64]int)
	for lo := 0; lo < len(edges); lo += 256 {
		hi := min(lo+256, len(edges))
		s.IngestBatch(edges[lo:hi], nil)
		for _, e := range edges[lo:hi] {
			deg[e.U]++
			deg[e.V]++
		}
	}
	verts := make([]uint64, 0, len(deg))
	var u uint64
	for v, d := range deg {
		verts = append(verts, v)
		if d > deg[u] {
			u = v
		}
	}
	x := rng.NewXoshiro256(7)
	cands := make([]uint64, 1000)
	for i := range cands {
		cands[i] = verts[x.Intn(len(verts))]
	}
	invalidateAll := func() {
		for _, sh := range s.shards {
			for _, vs := range sh.vertices {
				vs.deg.invalidate()
			}
		}
	}
	for _, memo := range []string{"cold", "warm"} {
		for _, m := range allQueryMeasures {
			b.Run(fmt.Sprintf("%s/%v", memo, m), func(b *testing.B) {
				var out []float64
				if memo == "warm" {
					if out, err = s.ScoreBatch(m, u, cands, out, nil); err != nil {
						b.Fatal(err)
					}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if memo == "cold" {
						b.StopTimer()
						invalidateAll()
						b.StartTimer()
					}
					if out, err = s.ScoreBatch(m, u, cands, out, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
