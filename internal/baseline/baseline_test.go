package baseline

import (
	"math"
	"testing"

	"linkpred/internal/core"
	"linkpred/internal/exact"
	"linkpred/internal/graph"
	"linkpred/internal/rng"
	"linkpred/internal/stream"
)

// Interface conformance: all three systems must satisfy System.
var (
	_ System = (*Exact)(nil)
	_ System = (*Reservoir)(nil)
	_ System = (*core.SketchStore)(nil)
)

// est is Estimate for one of the three target measures every System
// models.
func est(sys System, m core.QueryMeasure, u, v uint64) float64 {
	f, err := sys.Estimate(m, u, v)
	if err != nil {
		panic(err)
	}
	return f
}

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

func TestExactMatchesExactPackage(t *testing.T) {
	es := randomEdges(100, 2000, 1)
	sys := NewExact()
	g := graph.New()
	for _, e := range es {
		sys.ProcessEdge(e)
		g.AddEdge(e.U, e.V)
	}
	x := rng.NewXoshiro256(2)
	for i := 0; i < 200; i++ {
		u, v := uint64(x.Intn(100)), uint64(x.Intn(100))
		if est(sys, core.QueryJaccard, u, v) != exact.Jaccard(g, u, v) ||
			est(sys, core.QueryCommonNeighbors, u, v) != exact.CommonNeighbors(g, u, v) ||
			est(sys, core.QueryAdamicAdar, u, v) != exact.AdamicAdar(g, u, v) {
			t.Fatalf("Exact system diverges from exact package at (%d,%d)", u, v)
		}
	}
	if sys.MemoryBytes() != g.MemoryBytes() {
		t.Error("Exact memory accounting should match underlying graph")
	}
	if sys.Graph().NumEdges() != g.NumEdges() {
		t.Error("Graph() accessor inconsistent")
	}
}

func TestReservoirValidation(t *testing.T) {
	if _, err := NewReservoir(0, 1); err == nil {
		t.Error("capacity 0 should error")
	}
	if _, err := NewReservoir(-1, 1); err == nil {
		t.Error("negative capacity should error")
	}
}

func TestReservoirCapacityRespected(t *testing.T) {
	r, err := NewReservoir(100, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range randomEdges(500, 5000, 4) {
		r.ProcessEdge(e)
	}
	if r.SampledEdges() > 100 {
		t.Errorf("reservoir holds %d edges, capacity 100", r.SampledEdges())
	}
	if r.SampledEdges() != 100 {
		t.Errorf("reservoir should be full: %d/100", r.SampledEdges())
	}
}

func TestReservoirSmallStreamKeepsEverything(t *testing.T) {
	r, _ := NewReservoir(1000, 5)
	es := randomEdges(50, 100, 6)
	distinct := make(map[[2]uint64]struct{})
	for _, e := range es {
		r.ProcessEdge(e)
		c := e.Canonical()
		distinct[[2]uint64{c.U, c.V}] = struct{}{}
	}
	if r.SampledEdges() != len(distinct) {
		t.Errorf("undersized stream: sampled %d, distinct %d", r.SampledEdges(), len(distinct))
	}
	// With p = 1 the estimates must be exact.
	g := graph.New()
	for _, e := range es {
		g.AddEdge(e.U, e.V)
	}
	x := rng.NewXoshiro256(7)
	for i := 0; i < 100; i++ {
		u, v := uint64(x.Intn(50)), uint64(x.Intn(50))
		if got, want := est(r, core.QueryCommonNeighbors, u, v), exact.CommonNeighbors(g, u, v); math.Abs(got-want) > 1e-9 {
			t.Fatalf("p=1 CN(%d,%d) = %v, want %v", u, v, got, want)
		}
		if got, want := est(r, core.QueryJaccard, u, v), exact.Jaccard(g, u, v); math.Abs(got-want) > 1e-9 {
			t.Fatalf("p=1 J(%d,%d) = %v, want %v", u, v, got, want)
		}
	}
}

func TestReservoirIgnoresDuplicatesAndSelfLoops(t *testing.T) {
	r, _ := NewReservoir(10, 8)
	r.ProcessEdge(stream.Edge{U: 1, V: 2})
	r.ProcessEdge(stream.Edge{U: 2, V: 1})
	r.ProcessEdge(stream.Edge{U: 1, V: 2})
	r.ProcessEdge(stream.Edge{U: 3, V: 3})
	if r.DistinctSeen() != 1 {
		t.Errorf("DistinctSeen = %d, want 1", r.DistinctSeen())
	}
	if r.SampledEdges() != 1 {
		t.Errorf("SampledEdges = %d, want 1", r.SampledEdges())
	}
}

func TestReservoirUniformity(t *testing.T) {
	// Each distinct edge should survive with probability ≈ capacity/seen.
	const capacity, total = 50, 500
	counts := make(map[uint64]int)
	sm := rng.NewSplitMix64(9)
	const trials = 400
	for trial := 0; trial < trials; trial++ {
		r, _ := NewReservoir(capacity, sm.Uint64())
		for i := 0; i < total; i++ {
			// Distinct edges: (2i, 2i+1).
			r.ProcessEdge(stream.Edge{U: uint64(2 * i), V: uint64(2*i + 1)})
		}
		for _, e := range r.slots {
			counts[e.U/2]++
		}
	}
	want := float64(trials) * capacity / total
	for idx := uint64(0); idx < total; idx += 37 {
		got := float64(counts[idx])
		if math.Abs(got-want) > 6*math.Sqrt(want) {
			t.Errorf("edge %d sampled %v times, want ~%v", idx, got, want)
		}
	}
}

func TestReservoirCNEstimateUnbiasedish(t *testing.T) {
	// A pair with many common neighbors: mean estimate over independent
	// reservoirs should approach the truth.
	var es []stream.Edge
	const cn = 40
	for w := uint64(10); w < 10+cn; w++ {
		es = append(es, stream.Edge{U: 1, V: w}, stream.Edge{U: 2, V: w})
	}
	// Padding edges so the reservoir actually subsamples.
	for i := 0; i < 400; i++ {
		es = append(es, stream.Edge{U: uint64(1000 + 2*i), V: uint64(1001 + 2*i)})
	}
	sm := rng.NewSplitMix64(11)
	const trials = 300
	sum := 0.0
	for trial := 0; trial < trials; trial++ {
		r, _ := NewReservoir(120, sm.Uint64())
		for _, e := range es {
			r.ProcessEdge(e)
		}
		sum += est(r, core.QueryCommonNeighbors, 1, 2)
	}
	mean := sum / trials
	if math.Abs(mean-cn)/cn > 0.25 {
		t.Errorf("mean reservoir CN = %.1f over %d trials, want ≈%d", mean, trials, cn)
	}
}

func TestReservoirEstimatesNonNegativeFinite(t *testing.T) {
	r, _ := NewReservoir(64, 13)
	for _, e := range randomEdges(100, 3000, 14) {
		r.ProcessEdge(e)
	}
	x := rng.NewXoshiro256(15)
	for i := 0; i < 300; i++ {
		u, v := uint64(x.Intn(100)), uint64(x.Intn(100))
		j := est(r, core.QueryJaccard, u, v)
		cn := est(r, core.QueryCommonNeighbors, u, v)
		aa := est(r, core.QueryAdamicAdar, u, v)
		if j < 0 || j > 1 || math.IsNaN(j) {
			t.Fatalf("J(%d,%d) = %v out of range", u, v, j)
		}
		if cn < 0 || math.IsNaN(cn) || math.IsInf(cn, 0) {
			t.Fatalf("CN(%d,%d) = %v invalid", u, v, cn)
		}
		if aa < 0 || math.IsNaN(aa) || math.IsInf(aa, 0) {
			t.Fatalf("AA(%d,%d) = %v invalid", u, v, aa)
		}
	}
}

func TestReservoirMemoryAccounting(t *testing.T) {
	r, _ := NewReservoir(50, 17)
	before := r.MemoryBytes()
	for _, e := range randomEdges(200, 2000, 18) {
		r.ProcessEdge(e)
	}
	after := r.MemoryBytes()
	if after <= before {
		t.Errorf("memory accounting did not grow: %d → %d", before, after)
	}
	// The dedup fingerprint set must be accounted for: memory should
	// exceed the bare reservoir payload.
	if after < 32*int(r.DistinctSeen()) {
		t.Errorf("memory %d does not cover fingerprint set of %d edges", after, r.DistinctSeen())
	}
}

func TestSketchStoreSatisfiesSystemBehaviour(t *testing.T) {
	// Smoke-check polymorphic use: run all three systems over one stream
	// through the System interface.
	s, err := core.NewSketchStore(core.Config{K: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r, _ := NewReservoir(500, 2)
	systems := []System{NewExact(), r, s}
	for _, e := range randomEdges(80, 1500, 19) {
		for _, sys := range systems {
			sys.ProcessEdge(e)
		}
	}
	for _, sys := range systems {
		if sys.MemoryBytes() <= 0 {
			t.Errorf("%T reports non-positive memory", sys)
		}
		if j := est(sys, core.QueryJaccard, 1, 2); j < 0 || j > 1 {
			t.Errorf("%T Jaccard out of range: %v", sys, j)
		}
	}
	// The baselines model only the paper's three targets; asking them
	// for any other measure is an error, not a silent zero.
	for _, sys := range systems[:2] {
		if _, err := sys.Estimate(core.QueryCosine, 1, 2); err == nil {
			t.Errorf("%T: cosine should be an unmodeled-measure error", sys)
		}
	}
}
