package core

import (
	"math"
	"testing"

	"linkpred/internal/exact"
	"linkpred/internal/rng"
	"linkpred/internal/stream"
)

func TestResourceAllocationAccuracy(t *testing.T) {
	edges := dedup(randomEdges(200, 6000, 211))
	g, s := buildBoth(t, Config{K: 512, Seed: 223}, edges)
	x := rng.NewXoshiro256(227)
	var relErrs []float64
	for i := 0; i < 300; i++ {
		u, v := uint64(x.Intn(200)), uint64(x.Intn(200))
		truth := exact.ResourceAllocation(g, u, v)
		if u == v || truth < 0.2 {
			continue
		}
		est := est(s, QueryResourceAllocation, u, v)
		relErrs = append(relErrs, math.Abs(est-truth)/truth)
	}
	if len(relErrs) < 20 {
		t.Fatalf("only %d evaluable pairs", len(relErrs))
	}
	sum := 0.0
	for _, r := range relErrs {
		sum += r
	}
	if mean := sum / float64(len(relErrs)); mean > 0.3 {
		t.Errorf("RA mean relative error = %.3f at k=512, want < 0.3", mean)
	}
}

func TestPreferentialAttachmentExactUnderArrivals(t *testing.T) {
	// With duplicate-free streams and DegreeArrivals, PA is exact.
	edges := dedup(randomEdges(100, 2000, 229))
	g, s := buildBoth(t, Config{K: 8, Seed: 233}, edges)
	x := rng.NewXoshiro256(239)
	for i := 0; i < 200; i++ {
		u, v := uint64(x.Intn(100)), uint64(x.Intn(100))
		if got, want := est(s, QueryPreferentialAttachment, u, v), exact.PreferentialAttachment(g, u, v); got != want {
			t.Fatalf("PA(%d,%d) = %v, want exact %v", u, v, got, want)
		}
	}
}

func TestCosineAccuracy(t *testing.T) {
	edges := dedup(randomEdges(200, 6000, 241))
	g, s := buildBoth(t, Config{K: 512, Seed: 251}, edges)
	x := rng.NewXoshiro256(257)
	sum, n := 0.0, 0
	for i := 0; i < 300; i++ {
		u, v := uint64(x.Intn(200)), uint64(x.Intn(200))
		if u == v {
			continue
		}
		sum += math.Abs(est(s, QueryCosine, u, v) - exact.Cosine(g, u, v))
		n++
	}
	if mae := sum / float64(n); mae > 0.05 {
		t.Errorf("cosine MAE = %.4f at k=512, want < 0.05", mae)
	}
}

func TestExtraMeasuresUnknownVertices(t *testing.T) {
	s, _ := NewSketchStore(Config{K: 16})
	s.ProcessEdge(stream.Edge{U: 1, V: 2})
	if est(s, QueryResourceAllocation, 1, 99) != 0 ||
		est(s, QueryPreferentialAttachment, 99, 98) != 0 ||
		est(s, QueryCosine, 1, 99) != 0 {
		t.Error("extra measures with unknown vertices must return 0")
	}
}

func TestExtraMeasuresSymmetricAndFinite(t *testing.T) {
	edges := dedup(randomEdges(100, 2000, 263))
	_, s := buildBoth(t, Config{K: 64, Seed: 269}, edges)
	x := rng.NewXoshiro256(271)
	for i := 0; i < 200; i++ {
		u, v := uint64(x.Intn(100)), uint64(x.Intn(100))
		for name, m := range map[string]QueryMeasure{
			"RA":     QueryResourceAllocation,
			"PA":     QueryPreferentialAttachment,
			"cosine": QueryCosine,
		} {
			a, b := est(s, m, u, v), est(s, m, v, u)
			if a != b {
				t.Fatalf("%s asymmetric at (%d,%d): %v vs %v", name, u, v, a, b)
			}
			if a < 0 || math.IsNaN(a) || math.IsInf(a, 0) {
				t.Fatalf("%s(%d,%d) = %v invalid", name, u, v, a)
			}
		}
	}
}

// TestRAUpperBoundsAA checks the pointwise ordering RA <= AA·(ln2/... )?
// Not in general — instead check RA <= CN/2 and AA <= CN/ln2 hold for the
// estimators too (the weights are bounded by the degree clamp).
func TestWeightedEstimatorBounds(t *testing.T) {
	edges := dedup(randomEdges(150, 4000, 277))
	_, s := buildBoth(t, Config{K: 128, Seed: 281}, edges)
	x := rng.NewXoshiro256(283)
	for i := 0; i < 300; i++ {
		u, v := uint64(x.Intn(150)), uint64(x.Intn(150))
		if u == v {
			continue
		}
		cn := est(s, QueryCommonNeighbors, u, v)
		if ra := est(s, QueryResourceAllocation, u, v); ra > cn/2+1e-9 {
			t.Fatalf("estimated RA(%d,%d)=%v exceeds CN/2=%v", u, v, ra, cn/2)
		}
		if aa := est(s, QueryAdamicAdar, u, v); aa > cn/math.Ln2+1e-9 {
			t.Fatalf("estimated AA(%d,%d)=%v exceeds CN/ln2=%v", u, v, aa, cn/math.Ln2)
		}
	}
}
