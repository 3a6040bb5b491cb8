package core

import (
	"math"
	"testing"

	"linkpred/internal/exact"
	"linkpred/internal/graph"
	"linkpred/internal/rng"
	"linkpred/internal/stream"
)

func randomArcs(n, m int, seed uint64) []stream.Edge {
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

func buildDirected(t *testing.T, cfg Config, arcs []stream.Edge) (*graph.DiGraph, *DirectedStore) {
	t.Helper()
	g := graph.NewDi()
	s, err := NewDirectedStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range arcs {
		g.AddArc(e.U, e.V)
		s.ProcessArc(e)
	}
	return g, s
}

// dedupArcs keeps the first occurrence of each directed arc.
func dedupArcs(es []stream.Edge) []stream.Edge {
	seen := map[[2]uint64]bool{}
	var out []stream.Edge
	for _, e := range es {
		k := [2]uint64{e.U, e.V} // direction matters: no canonicalisation
		if !seen[k] && !e.IsSelfLoop() {
			seen[k] = true
			out = append(out, e)
		}
	}
	return out
}

func TestNewDirectedStoreValidation(t *testing.T) {
	if _, err := NewDirectedStore(Config{K: 0}); err == nil {
		t.Error("K=0 should error")
	}
	if _, err := NewDirectedStore(Config{K: 8, EnableBiased: true}); err == nil {
		t.Error("EnableBiased should be rejected")
	}
	s, err := NewDirectedStore(Config{K: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Config().K != 8 {
		t.Error("config not retained")
	}
}

func TestDirectedBasics(t *testing.T) {
	s, _ := NewDirectedStore(Config{K: 32, Seed: 1})
	s.ProcessArc(stream.Edge{U: 1, V: 2})
	s.ProcessArc(stream.Edge{U: 3, V: 3}) // self-loop ignored
	s.ProcessArc(stream.Edge{U: 1, V: 4})
	if s.NumArcs() != 2 {
		t.Errorf("NumArcs = %d, want 2", s.NumArcs())
	}
	if s.NumVertices() != 3 {
		t.Errorf("NumVertices = %d, want 3", s.NumVertices())
	}
	if s.OutDegree(1) != 2 || s.InDegree(1) != 0 {
		t.Errorf("degrees of 1 = out %v in %v, want 2/0", s.OutDegree(1), s.InDegree(1))
	}
	if s.OutDegree(2) != 0 || s.InDegree(2) != 1 {
		t.Errorf("degrees of 2 = out %v in %v, want 0/1", s.OutDegree(2), s.InDegree(2))
	}
	if s.OutDegree(99) != 0 || s.InDegree(99) != 0 {
		t.Error("unknown vertex degrees should be 0")
	}
	if !s.Knows(1) || s.Knows(99) {
		t.Error("Knows misreports")
	}
	if s.MemoryBytes() <= 0 {
		t.Error("memory accounting broken")
	}
}

func TestDirectedTwoPathStructure(t *testing.T) {
	// u → {10..29} → v: every out-neighbor of u feeds v.
	s, _ := NewDirectedStore(Config{K: 128, Seed: 2})
	for w := uint64(10); w < 30; w++ {
		s.ProcessArc(stream.Edge{U: 1, V: w})
		s.ProcessArc(stream.Edge{U: w, V: 2})
	}
	if j := est(s, QueryJaccard, 1, 2); j != 1 {
		t.Errorf("J(1→2) = %v, want 1 (N_out(1) == N_in(2))", j)
	}
	// The reverse direction shares nothing: N_out(2) and N_in(1) empty.
	if j := est(s, QueryJaccard, 2, 1); j != 0 {
		t.Errorf("J(2→1) = %v, want 0", j)
	}
	if cn := est(s, QueryCommonNeighbors, 1, 2); math.Abs(cn-20) > 2 {
		t.Errorf("CN(1→2) = %v, want ≈20", cn)
	}
	if aa := est(s, QueryAdamicAdar, 1, 2); aa <= 0 {
		t.Errorf("AA(1→2) = %v, want > 0", aa)
	}
}

func TestDirectedAccuracy(t *testing.T) {
	arcs := dedupArcs(randomArcs(200, 8000, 503))
	g, s := buildDirected(t, Config{K: 512, Seed: 509}, arcs)
	x := rng.NewXoshiro256(521)
	var jErr []float64
	var cnRel []float64
	for i := 0; i < 500; i++ {
		u, v := uint64(x.Intn(200)), uint64(x.Intn(200))
		if u == v {
			continue
		}
		jErr = append(jErr, math.Abs(est(s, QueryJaccard, u, v)-exact.DirectedJaccard(g, u, v)))
		truth := exact.DirectedCommonNeighbors(g, u, v)
		if truth >= 3 {
			cnRel = append(cnRel, math.Abs(est(s, QueryCommonNeighbors, u, v)-truth)/truth)
		}
	}
	sum := 0.0
	for _, e := range jErr {
		sum += e
	}
	if mae := sum / float64(len(jErr)); mae > 0.05 {
		t.Errorf("directed Jaccard MAE = %.4f at k=512, want < 0.05", mae)
	}
	if len(cnRel) < 20 {
		t.Fatalf("only %d CN-evaluable pairs", len(cnRel))
	}
	sum = 0
	for _, e := range cnRel {
		sum += e
	}
	if mre := sum / float64(len(cnRel)); mre > 0.3 {
		t.Errorf("directed CN mean rel err = %.3f at k=512, want < 0.3", mre)
	}
}

func TestDirectedAdamicAdarAccuracy(t *testing.T) {
	arcs := dedupArcs(randomArcs(150, 6000, 523))
	g, s := buildDirected(t, Config{K: 512, Seed: 541}, arcs)
	x := rng.NewXoshiro256(547)
	var rel []float64
	for i := 0; i < 500; i++ {
		u, v := uint64(x.Intn(150)), uint64(x.Intn(150))
		truth := exact.DirectedAdamicAdar(g, u, v)
		if u == v || truth < 1 {
			continue
		}
		rel = append(rel, math.Abs(est(s, QueryAdamicAdar, u, v)-truth)/truth)
	}
	if len(rel) < 20 {
		t.Fatalf("only %d evaluable pairs", len(rel))
	}
	sum := 0.0
	for _, e := range rel {
		sum += e
	}
	if mre := sum / float64(len(rel)); mre > 0.3 {
		t.Errorf("directed AA mean rel err = %.3f at k=512, want < 0.3", mre)
	}
}

func TestDirectedDuplicateArcsIdempotentForSketch(t *testing.T) {
	base := randomArcs(100, 1000, 557)
	dup := append(append([]stream.Edge(nil), base...), base...)
	cfg := Config{K: 64, Seed: 563, Degrees: DegreeDistinctKMV}
	_, s1 := buildDirected(t, cfg, base)
	_, s2 := buildDirected(t, cfg, dup)
	x := rng.NewXoshiro256(569)
	for i := 0; i < 200; i++ {
		u, v := uint64(x.Intn(100)), uint64(x.Intn(100))
		if est(s1, QueryJaccard, u, v) != est(s2, QueryJaccard, u, v) {
			t.Fatalf("duplicates changed directed Jaccard(%d→%d)", u, v)
		}
	}
}

func TestDirectedKMVDegrees(t *testing.T) {
	var arcs []stream.Edge
	for w := uint64(0); w < 400; w++ {
		arcs = append(arcs, stream.Edge{U: 9999, V: w + 1})
		arcs = append(arcs, stream.Edge{U: 9999, V: w + 1}) // duplicate
	}
	_, s := buildDirected(t, Config{K: 256, Seed: 571, Degrees: DegreeDistinctKMV}, arcs)
	if got := s.OutDegree(9999); math.Abs(got-400)/400 > 0.15 {
		t.Errorf("KMV out-degree = %v, want ≈400", got)
	}
	if got := s.InDegree(9999); got != 0 {
		t.Errorf("in-degree = %v, want 0", got)
	}
}

func TestDirectedProcessStream(t *testing.T) {
	s, _ := NewDirectedStore(Config{K: 16, Seed: 1})
	n, err := s.Process(stream.Slice(randomArcs(50, 300, 577)))
	if err != nil || n != 300 {
		t.Fatalf("Process = %d, %v", n, err)
	}
}

func TestDirectedUnknownVertices(t *testing.T) {
	s, _ := NewDirectedStore(Config{K: 16, Seed: 1})
	s.ProcessArc(stream.Edge{U: 1, V: 2})
	if est(s, QueryJaccard, 1, 99) != 0 ||
		est(s, QueryCommonNeighbors, 99, 1) != 0 ||
		est(s, QueryAdamicAdar, 98, 99) != 0 {
		t.Error("queries with unknown vertices must return 0")
	}
}
