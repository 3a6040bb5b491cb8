package core

import (
	"math"
	"testing"
	"testing/quick"

	"linkpred/internal/exact"
	"linkpred/internal/gen"
	"linkpred/internal/graph"
	"linkpred/internal/hashing"
	"linkpred/internal/rng"
	"linkpred/internal/stream"
)

// buildBoth feeds the same edge list to an exact graph and a sketch
// store, returning both.
func buildBoth(t *testing.T, cfg Config, edges []stream.Edge) (*graph.Graph, *SketchStore) {
	t.Helper()
	g := graph.New()
	s, err := NewSketchStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		g.AddEdge(e.U, e.V)
		s.ProcessEdge(e)
	}
	return g, s
}

// est is Estimate for a measure the caller knows is valid (an invalid
// measure is Estimate's only error).
func est(s Store, m QueryMeasure, u, v uint64) float64 {
	f, err := s.Estimate(m, u, v)
	if err != nil {
		panic(err)
	}
	return f
}

// randomEdges returns m distinct-ish random edges over n vertices.
func randomEdges(n, m int, seed uint64) []stream.Edge {
	x := rng.NewXoshiro256(seed)
	es := make([]stream.Edge, 0, m)
	for i := 0; i < m; i++ {
		u := uint64(x.Intn(n))
		v := uint64(x.Intn(n - 1))
		if v >= u {
			v++
		}
		es = append(es, stream.Edge{U: u, V: v, T: int64(i)})
	}
	return es
}

func TestNewSketchStoreValidation(t *testing.T) {
	if _, err := NewSketchStore(Config{K: 0}); err == nil {
		t.Error("K=0 should error")
	}
	if _, err := NewSketchStore(Config{K: -5}); err == nil {
		t.Error("K<0 should error")
	}
	s, err := NewSketchStore(Config{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	if s.Config().K != 8 {
		t.Error("Config not retained")
	}
}

func TestProcessBasics(t *testing.T) {
	s, _ := NewSketchStore(Config{K: 16})
	s.ProcessEdge(stream.Edge{U: 1, V: 2})
	s.ProcessEdge(stream.Edge{U: 3, V: 3}) // self-loop ignored
	s.ProcessEdge(stream.Edge{U: 2, V: 3})
	if !s.Knows(1) || !s.Knows(2) || !s.Knows(3) {
		t.Error("endpoints should be known")
	}
	if s.Knows(4) {
		t.Error("vertex 4 should be unknown")
	}
	if s.NumVertices() != 3 {
		t.Errorf("NumVertices = %d, want 3", s.NumVertices())
	}
	if s.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2 (self-loop dropped)", s.NumEdges())
	}
	if s.Degree(2) != 2 {
		t.Errorf("Degree(2) = %v, want 2", s.Degree(2))
	}
	if s.Degree(99) != 0 {
		t.Errorf("Degree(unknown) = %v, want 0", s.Degree(99))
	}
}

func TestProcessStream(t *testing.T) {
	s, _ := NewSketchStore(Config{K: 8})
	n, err := s.Process(stream.Slice(randomEdges(50, 200, 1)))
	if err != nil || n != 200 {
		t.Fatalf("Process = %d, %v", n, err)
	}
	if s.NumEdges() != 200 {
		t.Errorf("NumEdges = %d", s.NumEdges())
	}
}

func TestJaccardIdenticalNeighborhoods(t *testing.T) {
	// Vertices 1 and 2 both link to exactly {10, …, 29} → J = 1.
	var es []stream.Edge
	for w := uint64(10); w < 30; w++ {
		es = append(es, stream.Edge{U: 1, V: w}, stream.Edge{U: 2, V: w})
	}
	_, s := buildBoth(t, Config{K: 64, Seed: 1}, es)
	if got := est(s, QueryJaccard, 1, 2); got != 1 {
		t.Errorf("J of identical neighborhoods = %v, want exactly 1", got)
	}
}

func TestJaccardDisjointNeighborhoods(t *testing.T) {
	var es []stream.Edge
	for w := uint64(10); w < 30; w++ {
		es = append(es, stream.Edge{U: 1, V: w}, stream.Edge{U: 2, V: w + 100})
	}
	_, s := buildBoth(t, Config{K: 64, Seed: 1}, es)
	if got := est(s, QueryJaccard, 1, 2); got != 0 {
		t.Errorf("J of disjoint neighborhoods = %v, want 0 (collisions aside)", got)
	}
}

func TestUnknownVerticesScoreZero(t *testing.T) {
	s, _ := NewSketchStore(Config{K: 16, EnableBiased: true})
	s.ProcessEdge(stream.Edge{U: 1, V: 2})
	if est(s, QueryJaccard, 1, 99) != 0 ||
		est(s, QueryCommonNeighbors, 99, 1) != 0 ||
		est(s, QueryAdamicAdar, 98, 99) != 0 ||
		s.EstimateAdamicAdarBiased(1, 99) != 0 ||
		s.EstimateCommonNeighborsViaUnion(1, 99) != 0 {
		t.Error("queries with unknown vertices must return 0")
	}
}

func TestDuplicateEdgesIdempotentForSketch(t *testing.T) {
	base := randomEdges(100, 500, 3)
	// Duplicate the whole stream three times over.
	dup := append(append(append([]stream.Edge(nil), base...), base...), base...)
	cfg := Config{K: 64, Seed: 7, Degrees: DegreeDistinctKMV}
	_, s1 := buildBoth(t, cfg, base)
	_, s2 := buildBoth(t, cfg, dup)
	x := rng.NewXoshiro256(9)
	for i := 0; i < 100; i++ {
		u, v := uint64(x.Intn(100)), uint64(x.Intn(100))
		if a, b := est(s1, QueryJaccard, u, v), est(s2, QueryJaccard, u, v); a != b {
			t.Fatalf("duplicates changed Jaccard(%d,%d): %v vs %v", u, v, a, b)
		}
	}
}

func TestDegreeModes(t *testing.T) {
	// Stream with duplicates: vertex 1 has 3 distinct neighbors, 6 arrivals.
	es := []stream.Edge{
		{U: 1, V: 2}, {U: 1, V: 3}, {U: 1, V: 4},
		{U: 1, V: 2}, {U: 1, V: 3}, {U: 1, V: 4},
	}
	_, arrivals := buildBoth(t, Config{K: 256, Seed: 1, Degrees: DegreeArrivals}, es)
	if got := arrivals.Degree(1); got != 6 {
		t.Errorf("arrivals degree = %v, want 6", got)
	}
	_, kmv := buildBoth(t, Config{K: 256, Seed: 1, Degrees: DegreeDistinctKMV}, es)
	got := kmv.Degree(1)
	if got < 1.5 || got > 5 {
		t.Errorf("KMV distinct degree = %v, want ≈3", got)
	}
}

func TestKMVDegreeAccuracy(t *testing.T) {
	// A vertex with many distinct neighbors: KMV should land within ~15%
	// at K = 256.
	var es []stream.Edge
	const trueDeg = 500
	for w := uint64(0); w < trueDeg; w++ {
		es = append(es, stream.Edge{U: 10_000, V: w + 1})
	}
	_, s := buildBoth(t, Config{K: 256, Seed: 5, Degrees: DegreeDistinctKMV}, es)
	got := s.Degree(10_000)
	if math.Abs(got-trueDeg)/trueDeg > 0.15 {
		t.Errorf("KMV degree = %v, want within 15%% of %d", got, trueDeg)
	}
}

func TestKMVDegreeClampedByArrivals(t *testing.T) {
	es := []stream.Edge{{U: 1, V: 2}}
	_, s := buildBoth(t, Config{K: 8, Seed: 1, Degrees: DegreeDistinctKMV}, es)
	if got := s.Degree(1); got != 1 {
		t.Errorf("single-neighbor KMV degree = %v, want clamped to 1", got)
	}
}

func TestJaccardAccuracyConverges(t *testing.T) {
	edges := randomEdges(200, 4000, 11)
	g := graph.New()
	for _, e := range edges {
		g.AddEdge(e.U, e.V)
	}
	x := rng.NewXoshiro256(13)
	type pair struct{ u, v uint64 }
	var pairs []pair
	for len(pairs) < 200 {
		u, v := uint64(x.Intn(200)), uint64(x.Intn(200))
		if u != v && g.CommonNeighbors(u, v) > 0 {
			pairs = append(pairs, pair{u, v})
		}
	}
	mae := func(k int) float64 {
		_, s := buildBoth(t, Config{K: k, Seed: 17}, edges)
		sum := 0.0
		for _, p := range pairs {
			sum += math.Abs(est(s, QueryJaccard, p.u, p.v) - exact.Jaccard(g, p.u, p.v))
		}
		return sum / float64(len(pairs))
	}
	e32, e512 := mae(32), mae(512)
	// Error should shrink roughly like 1/√k → factor 4 from 32 to 512;
	// require at least a factor 2 to keep the test robust.
	if e512 > e32/2 {
		t.Errorf("Jaccard MAE did not converge: k=32 %.4f, k=512 %.4f", e32, e512)
	}
	if e512 > 0.05 {
		t.Errorf("Jaccard MAE at k=512 = %.4f, want < 0.05", e512)
	}
}

func TestCommonNeighborsAccuracy(t *testing.T) {
	edges := randomEdges(200, 6000, 19)
	g, s := buildBoth(t, Config{K: 512, Seed: 23}, edges)
	// Dedup the stream for the exact graph comparison: randomEdges can
	// repeat, and DegreeArrivals then overcounts. Use distinct edges only.
	seen := map[[2]uint64]bool{}
	var distinct []stream.Edge
	for _, e := range edges {
		c := e.Canonical()
		k := [2]uint64{c.U, c.V}
		if !seen[k] {
			seen[k] = true
			distinct = append(distinct, e)
		}
	}
	g, s = buildBoth(t, Config{K: 512, Seed: 23}, distinct)
	x := rng.NewXoshiro256(29)
	var relErrs []float64
	for i := 0; i < 300; i++ {
		u, v := uint64(x.Intn(200)), uint64(x.Intn(200))
		truth := exact.CommonNeighbors(g, u, v)
		if u == v || truth < 5 {
			continue
		}
		est := est(s, QueryCommonNeighbors, u, v)
		relErrs = append(relErrs, math.Abs(est-truth)/truth)
	}
	if len(relErrs) < 20 {
		t.Fatalf("only %d evaluable pairs; fixture too sparse", len(relErrs))
	}
	sum := 0.0
	for _, r := range relErrs {
		sum += r
	}
	if mean := sum / float64(len(relErrs)); mean > 0.25 {
		t.Errorf("CN mean relative error = %.3f at k=512, want < 0.25", mean)
	}
}

func TestAdamicAdarAccuracy(t *testing.T) {
	edges := dedup(randomEdges(200, 6000, 31))
	g, s := buildBoth(t, Config{K: 512, Seed: 37}, edges)
	x := rng.NewXoshiro256(41)
	var relErrs []float64
	for i := 0; i < 300; i++ {
		u, v := uint64(x.Intn(200)), uint64(x.Intn(200))
		truth := exact.AdamicAdar(g, u, v)
		if u == v || truth < 2 {
			continue
		}
		est := est(s, QueryAdamicAdar, u, v)
		relErrs = append(relErrs, math.Abs(est-truth)/truth)
	}
	if len(relErrs) < 20 {
		t.Fatalf("only %d evaluable pairs", len(relErrs))
	}
	sum := 0.0
	for _, r := range relErrs {
		sum += r
	}
	if mean := sum / float64(len(relErrs)); mean > 0.25 {
		t.Errorf("AA mean relative error = %.3f at k=512, want < 0.25", mean)
	}
}

func TestAdamicAdarBiasedRequiresConfig(t *testing.T) {
	s, _ := NewSketchStore(Config{K: 8})
	s.ProcessEdge(stream.Edge{U: 1, V: 2})
	if got := s.EstimateAdamicAdarBiased(1, 2); !math.IsNaN(got) {
		t.Errorf("biased AA without EnableBiased = %v, want NaN", got)
	}
}

func TestAdamicAdarBiasedRoughAccuracy(t *testing.T) {
	edges := dedup(randomEdges(150, 4000, 43))
	g, s := buildBoth(t, Config{K: 256, Seed: 47, EnableBiased: true}, edges)
	x := rng.NewXoshiro256(53)
	var relErrs []float64
	for i := 0; i < 300; i++ {
		u, v := uint64(x.Intn(150)), uint64(x.Intn(150))
		truth := exact.AdamicAdar(g, u, v)
		if u == v || truth < 3 {
			continue
		}
		est := s.EstimateAdamicAdarBiased(u, v)
		relErrs = append(relErrs, math.Abs(est-truth)/truth)
	}
	if len(relErrs) < 20 {
		t.Fatalf("only %d evaluable pairs", len(relErrs))
	}
	sum := 0.0
	for _, r := range relErrs {
		sum += r
	}
	// The biased estimator carries degree-drift bias; accept a looser
	// bound than the matched-register estimator. E7 quantifies the gap.
	if mean := sum / float64(len(relErrs)); mean > 0.6 {
		t.Errorf("biased AA mean relative error = %.3f, want < 0.6", mean)
	}
}

func TestUnionSizeAccuracy(t *testing.T) {
	edges := dedup(randomEdges(200, 5000, 59))
	g, s := buildBoth(t, Config{K: 512, Seed: 61}, edges)
	x := rng.NewXoshiro256(67)
	var relErrs []float64
	for i := 0; i < 200; i++ {
		u, v := uint64(x.Intn(200)), uint64(x.Intn(200))
		if u == v || g.Degree(u) == 0 || g.Degree(v) == 0 {
			continue
		}
		truth := float64(g.Degree(u) + g.Degree(v) - g.CommonNeighbors(u, v))
		if truth < 10 {
			continue
		}
		est := s.EstimateUnionSize(u, v)
		relErrs = append(relErrs, math.Abs(est-truth)/truth)
	}
	sum := 0.0
	for _, r := range relErrs {
		sum += r
	}
	if mean := sum / float64(len(relErrs)); mean > 0.15 {
		t.Errorf("union-size mean relative error = %.3f, want < 0.15", mean)
	}
}

func TestUnionSizeOneUnknownEndpoint(t *testing.T) {
	es := dedup(randomEdges(50, 300, 71))
	_, s := buildBoth(t, Config{K: 64, Seed: 1}, es)
	if got := s.EstimateUnionSize(0, 9999); got != s.Degree(0) {
		t.Errorf("union with unknown vertex = %v, want Degree(0) = %v", got, s.Degree(0))
	}
	if got := s.EstimateUnionSize(9998, 9999); got != 0 {
		t.Errorf("union of two unknown = %v, want 0", got)
	}
}

func TestEstimatesSymmetric(t *testing.T) {
	edges := dedup(randomEdges(100, 2000, 73))
	_, s := buildBoth(t, Config{K: 64, Seed: 79, EnableBiased: true}, edges)
	x := rng.NewXoshiro256(83)
	for i := 0; i < 200; i++ {
		u, v := uint64(x.Intn(100)), uint64(x.Intn(100))
		if est(s, QueryJaccard, u, v) != est(s, QueryJaccard, v, u) {
			t.Fatalf("Jaccard asymmetric at (%d,%d)", u, v)
		}
		if est(s, QueryCommonNeighbors, u, v) != est(s, QueryCommonNeighbors, v, u) {
			t.Fatalf("CN asymmetric at (%d,%d)", u, v)
		}
		if est(s, QueryAdamicAdar, u, v) != est(s, QueryAdamicAdar, v, u) {
			t.Fatalf("AA asymmetric at (%d,%d)", u, v)
		}
		a, b := s.EstimateAdamicAdarBiased(u, v), s.EstimateAdamicAdarBiased(v, u)
		if a != b {
			t.Fatalf("biased AA asymmetric at (%d,%d): %v vs %v", u, v, a, b)
		}
	}
}

func TestEstimateRangesProperty(t *testing.T) {
	edges := dedup(randomEdges(80, 1500, 89))
	_, s := buildBoth(t, Config{K: 32, Seed: 97, EnableBiased: true}, edges)
	if err := quick.Check(func(a, b uint16) bool {
		u, v := uint64(a%80), uint64(b%80)
		j := est(s, QueryJaccard, u, v)
		cn := est(s, QueryCommonNeighbors, u, v)
		aa := est(s, QueryAdamicAdar, u, v)
		ab := s.EstimateAdamicAdarBiased(u, v)
		return j >= 0 && j <= 1 && cn >= 0 && aa >= 0 && ab >= 0 &&
			!math.IsNaN(j) && !math.IsNaN(cn) && !math.IsNaN(aa) && !math.IsNaN(ab) &&
			!math.IsInf(aa, 0) && !math.IsInf(ab, 0)
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDeterminismAcrossStores(t *testing.T) {
	edges := randomEdges(100, 2000, 101)
	cfg := Config{K: 64, Seed: 103, EnableBiased: true}
	_, s1 := buildBoth(t, cfg, edges)
	_, s2 := buildBoth(t, cfg, edges)
	x := rng.NewXoshiro256(107)
	for i := 0; i < 200; i++ {
		u, v := uint64(x.Intn(100)), uint64(x.Intn(100))
		if est(s1, QueryJaccard, u, v) != est(s2, QueryJaccard, u, v) ||
			est(s1, QueryAdamicAdar, u, v) != est(s2, QueryAdamicAdar, u, v) ||
			s1.EstimateAdamicAdarBiased(u, v) != s2.EstimateAdamicAdarBiased(u, v) {
			t.Fatalf("stores with identical config diverge at (%d,%d)", u, v)
		}
	}
}

func TestTabulationHashingWorksToo(t *testing.T) {
	// Cross-validate that accuracy does not depend on the default hash:
	// rough Jaccard agreement with exact under tabulation hashing.
	edges := dedup(randomEdges(100, 3000, 109))
	g, s := buildBoth(t, Config{K: 256, Seed: 113, Hash: hashing.KindTabulation}, edges)
	x := rng.NewXoshiro256(127)
	sum, n := 0.0, 0
	for i := 0; i < 200; i++ {
		u, v := uint64(x.Intn(100)), uint64(x.Intn(100))
		if u == v {
			continue
		}
		sum += math.Abs(est(s, QueryJaccard, u, v) - exact.Jaccard(g, u, v))
		n++
	}
	if mae := sum / float64(n); mae > 0.06 {
		t.Errorf("tabulation Jaccard MAE = %.4f, want < 0.06", mae)
	}
}

func TestMemoryBytesConstantPerVertex(t *testing.T) {
	cfg := Config{K: 32, Seed: 1}
	_, small := buildBoth(t, cfg, randomEdges(100, 1000, 131))
	_, large := buildBoth(t, cfg, randomEdges(100, 50000, 131))
	// Same vertex count, 50× the edges: sketch memory must not grow.
	if small.NumVertices() != large.NumVertices() {
		t.Skipf("vertex counts differ: %d vs %d", small.NumVertices(), large.NumVertices())
	}
	if large.MemoryBytes() != small.MemoryBytes() {
		t.Errorf("memory grew with edges: %d → %d bytes", small.MemoryBytes(), large.MemoryBytes())
	}
}

func TestMemoryBytesScalesWithK(t *testing.T) {
	edges := randomEdges(100, 1000, 137)
	_, s32 := buildBoth(t, Config{K: 32}, edges)
	_, s64 := buildBoth(t, Config{K: 64}, edges)
	if s64.MemoryBytes() <= s32.MemoryBytes() {
		t.Errorf("memory did not scale with K: k=32 %d, k=64 %d",
			s32.MemoryBytes(), s64.MemoryBytes())
	}
}

func TestDegreeModeString(t *testing.T) {
	if DegreeArrivals.String() != "arrivals" || DegreeDistinctKMV.String() != "kmv" {
		t.Error("DegreeMode.String mismatch")
	}
	if DegreeMode(9).String() != "DegreeMode(9)" {
		t.Error("unknown DegreeMode string")
	}
}

func TestProcessStreamFromGenerator(t *testing.T) {
	src, err := gen.BarabasiAlbert(500, 3, 139)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := NewSketchStore(Config{K: 32, Seed: 1})
	if _, err := s.Process(src); err != nil {
		t.Fatal(err)
	}
	if s.NumVertices() != 500 {
		t.Errorf("NumVertices = %d, want 500", s.NumVertices())
	}
}

// dedup returns the distinct undirected edges of es in first-arrival order.
func dedup(es []stream.Edge) []stream.Edge {
	seen := map[[2]uint64]bool{}
	var out []stream.Edge
	for _, e := range es {
		c := e.Canonical()
		k := [2]uint64{c.U, c.V}
		if !seen[k] && !e.IsSelfLoop() {
			seen[k] = true
			out = append(out, e)
		}
	}
	return out
}
