package core

import (
	"math"
	"testing"

	"linkpred/internal/exact"
	"linkpred/internal/graph"
	"linkpred/internal/rng"
	"linkpred/internal/stream"
)

func TestSketchSizeForKnownValues(t *testing.T) {
	// k >= ln(2/δ)/(2ε²): for ε=0.1, δ=0.05 → ln(40)/0.02 ≈ 184.4 → 185.
	if got := SketchSizeFor(0.1, 0.05); got != 185 {
		t.Errorf("SketchSizeFor(0.1, 0.05) = %d, want 185", got)
	}
	// Halving ε quadruples k (up to ceiling).
	k1 := SketchSizeFor(0.2, 0.1)
	k2 := SketchSizeFor(0.1, 0.1)
	if k2 < 3*k1 || k2 > 5*k1 {
		t.Errorf("halving eps: k %d → %d, want ≈4×", k1, k2)
	}
}

func TestSketchSizeForPanics(t *testing.T) {
	for _, c := range []struct{ eps, delta float64 }{
		{0, 0.1}, {1, 0.1}, {0.1, 0}, {0.1, 1}, {-0.5, 0.1}, {0.1, 2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SketchSizeFor(%v, %v) did not panic", c.eps, c.delta)
				}
			}()
			SketchSizeFor(c.eps, c.delta)
		}()
	}
}

func TestJaccardErrorBoundInvertsSketchSize(t *testing.T) {
	for _, eps := range []float64{0.05, 0.1, 0.2} {
		k := SketchSizeFor(eps, 0.1)
		if got := JaccardErrorBound(k, 0.1); got > eps+1e-9 {
			t.Errorf("JaccardErrorBound(%d) = %v exceeds requested eps %v", k, got, eps)
		}
	}
}

func TestJaccardErrorBoundPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("JaccardErrorBound(0, 0.1) did not panic")
		}
	}()
	JaccardErrorBound(0, 0.1)
}

// TestHoeffdingBoundHolds builds many independent sketches of the same
// set pair and checks the empirical violation rate of the (ε, δ) bound.
func TestHoeffdingBoundHolds(t *testing.T) {
	// Fixed pair of neighbor sets with J = 1/3: |∩|=10, |∪|=30.
	var es []stream.Edge
	for w := uint64(0); w < 20; w++ {
		es = append(es, stream.Edge{U: 1, V: 100 + w}) // N(1) = 100..119
	}
	for w := uint64(10); w < 30; w++ {
		es = append(es, stream.Edge{U: 2, V: 100 + w}) // N(2) = 110..129
	}
	const trueJ = 1.0 / 3
	const delta = 0.1
	const k = 128
	eps := JaccardErrorBound(k, delta)
	violations := 0
	const trials = 300
	sm := rng.NewSplitMix64(997)
	for i := 0; i < trials; i++ {
		s, err := NewSketchStore(Config{K: k, Seed: sm.Uint64()})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range es {
			s.ProcessEdge(e)
		}
		if math.Abs(est(s, QueryJaccard, 1, 2)-trueJ) > eps {
			violations++
		}
	}
	if rate := float64(violations) / trials; rate > delta {
		t.Errorf("bound violated %.1f%% of trials, guarantee was %.0f%%",
			100*rate, 100*delta)
	}
}

// TestCommonNeighborBoundHolds checks the derived CN bound empirically on
// the same fixture (exact degrees, duplicate-free stream).
func TestCommonNeighborBoundHolds(t *testing.T) {
	var es []stream.Edge
	for w := uint64(0); w < 20; w++ {
		es = append(es, stream.Edge{U: 1, V: 100 + w})
	}
	for w := uint64(10); w < 30; w++ {
		es = append(es, stream.Edge{U: 2, V: 100 + w})
	}
	g := graph.New()
	for _, e := range es {
		g.AddEdge(e.U, e.V)
	}
	trueCN := exact.CommonNeighbors(g, 1, 2)
	const delta = 0.1
	const k = 128
	bound := CommonNeighborErrorBound(k, delta, 40)
	violations := 0
	const trials = 300
	sm := rng.NewSplitMix64(499)
	for i := 0; i < trials; i++ {
		s, _ := NewSketchStore(Config{K: k, Seed: sm.Uint64()})
		for _, e := range es {
			s.ProcessEdge(e)
		}
		if math.Abs(est(s, QueryCommonNeighbors, 1, 2)-trueCN) > bound {
			violations++
		}
	}
	if rate := float64(violations) / trials; rate > delta {
		t.Errorf("CN bound violated %.1f%% of trials, guarantee was %.0f%%",
			100*rate, 100*delta)
	}
}

func TestAdamicAdarErrorBoundPositiveAndMonotone(t *testing.T) {
	b1 := AdamicAdarErrorBound(64, 0.1, 40, 0.3, 10)
	b2 := AdamicAdarErrorBound(256, 0.1, 40, 0.3, 10)
	if b1 <= 0 || b2 <= 0 {
		t.Fatalf("bounds must be positive: %v, %v", b1, b2)
	}
	if b2 >= b1 {
		t.Errorf("AA bound did not shrink with k: k=64 %v, k=256 %v", b1, b2)
	}
}
