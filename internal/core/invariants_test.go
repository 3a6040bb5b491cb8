package core

import (
	"testing"
	"testing/quick"

	"linkpred/internal/rng"
	"linkpred/internal/stream"
)

// Cross-cutting invariants of the sketch constructions, checked with
// testing/quick over randomized streams.

// TestOrderInvariance: register state is a min over the neighbor set and
// degrees are counters, so any permutation of a stream yields an
// identical store — arrival order must not matter to any estimator.
func TestOrderInvariance(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		edges := randomEdges(60, 400, seed)
		shuffled := append([]stream.Edge(nil), edges...)
		x := rng.NewXoshiro256(seed + 1)
		x.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		cfg := Config{K: 32, Seed: seed + 2}
		a, _ := NewSketchStore(cfg)
		b, _ := NewSketchStore(cfg)
		for _, e := range edges {
			a.ProcessEdge(e)
		}
		for _, e := range shuffled {
			b.ProcessEdge(e)
		}
		for i := 0; i < 50; i++ {
			u, v := x.Uint64()%60, x.Uint64()%60
			if est(a, QueryJaccard, u, v) != est(b, QueryJaccard, u, v) ||
				est(a, QueryCommonNeighbors, u, v) != est(b, QueryCommonNeighbors, u, v) ||
				est(a, QueryAdamicAdar, u, v) != est(b, QueryAdamicAdar, u, v) ||
				a.Degree(u) != b.Degree(u) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestWindowedWithHugeWindowMatchesPlain: a window larger than the whole
// stream never rotates, and its merged estimators must agree with a
// plain store in KMV degree mode (windowed always uses distinct
// degrees).
func TestWindowedWithHugeWindowMatchesPlain(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		edges := randomEdges(50, 300, seed)
		for i := range edges {
			edges[i].T = int64(i)
		}
		cfg := Config{K: 32, Seed: seed + 3, Degrees: DegreeDistinctKMV}
		plain, _ := NewSketchStore(cfg)
		w, err := NewWindowed(Config{K: 32, Seed: seed + 3}, 1<<40, 2)
		if err != nil {
			return false
		}
		for _, e := range edges {
			plain.ProcessEdge(e)
			w.ProcessEdge(e)
		}
		x := rng.NewXoshiro256(seed + 4)
		for i := 0; i < 50; i++ {
			u, v := x.Uint64()%50, x.Uint64()%50
			if est(plain, QueryJaccard, u, v) != est(w, QueryJaccard, u, v) {
				return false
			}
			if plain.Degree(u) != w.Degree(u) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestJaccardTriangleConsistency: for any three vertices, the estimated
// Jaccard values must be symmetric and self-similarity must dominate:
// Ĵ(u,u) = 1 for any known non-isolated vertex.
func TestJaccardSelfIsOne(t *testing.T) {
	_, s := buildBoth(t, Config{K: 16, Seed: 5}, randomEdges(40, 200, 901))
	if err := quick.Check(func(a uint16) bool {
		u := uint64(a % 40)
		if !s.Knows(u) {
			return true
		}
		return est(s, QueryJaccard, u, u) == 1
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestDegreeMonotoneInStream: a vertex's arrival-mode degree never
// decreases as more edges arrive.
func TestDegreeMonotoneInStream(t *testing.T) {
	s, _ := NewSketchStore(Config{K: 8, Seed: 7})
	x := rng.NewXoshiro256(907)
	prev := map[uint64]float64{}
	for i := 0; i < 2000; i++ {
		u, v := x.Uint64()%30, x.Uint64()%30
		s.ProcessEdge(stream.Edge{U: u, V: v})
		for _, w := range []uint64{u, v} {
			if d := s.Degree(w); d < prev[w] {
				t.Fatalf("degree of %d decreased: %v -> %v", w, prev[w], d)
			} else {
				prev[w] = d
			}
		}
	}
}
