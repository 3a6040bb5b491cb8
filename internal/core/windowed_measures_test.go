package core

import (
	"testing"

	"linkpred/internal/stream"
)

// The windowed estimators promise to be register-identical to a plain
// SketchStore fed exactly the live window's edges (the merged
// per-register minimum across generations IS the MinHash sketch of the
// union, and windowed degrees are the KMV estimate over that merged
// sketch). These tests pin that promise bitwise for the full measure
// set — including ResourceAllocation, PreferentialAttachment, and
// Cosine — both before any rotation and after rotations have expired
// old generations (the PR-2 rotation semantics).

// windowedMeasurePairs enumerates a pair grid that covers known↔known,
// known↔unknown, unknown↔unknown, and self pairs.
func windowedMeasurePairs(hi uint64) [][2]uint64 {
	var pairs [][2]uint64
	for u := uint64(0); u < hi; u++ {
		for v := u; v < hi; v++ {
			pairs = append(pairs, [2]uint64{u, v})
		}
	}
	return pairs
}

// assertWindowedMatchesPlain checks Knows, Degree, and every measure of
// the windowed store against a plain SketchStore, bitwise.
func assertWindowedMatchesPlain(t *testing.T, w *Windowed, plain *SketchStore, hi uint64) {
	t.Helper()
	for u := uint64(0); u < hi; u++ {
		if w.Knows(u) != plain.Knows(u) {
			t.Errorf("Knows(%d) = %v, plain = %v", u, w.Knows(u), plain.Knows(u))
		}
		if !sameFloat(w.Degree(u), plain.Degree(u)) {
			t.Errorf("Degree(%d) = %v, plain = %v", u, w.Degree(u), plain.Degree(u))
		}
	}
	for _, m := range allQueryMeasures {
		for _, p := range windowedMeasurePairs(hi) {
			got := est(w, m, p[0], p[1])
			want := est(plain, m, p[0], p[1])
			if !sameFloat(got, want) {
				t.Fatalf("%v(%d,%d) = %v, plain store = %v (must be bit-identical)",
					m, p[0], p[1], got, want)
			}
		}
	}
}

// TestWindowedMeasuresMatchPlainStore: with no rotation, every windowed
// estimator — including the Cosine / PreferentialAttachment /
// ResourceAllocation additions — must be bit-identical to a fresh
// SketchStore in KMV-degree mode fed the same edges.
func TestWindowedMeasuresMatchPlainStore(t *testing.T) {
	edges, _ := batchEdges(41, 1500) // multigraph with duplicates, T = 0..1499
	w, err := NewWindowed(Config{K: 64, Seed: 7}, 6000, 4)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewSketchStore(Config{K: 64, Seed: 7, Degrees: DegreeDistinctKMV})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		w.ProcessEdge(e)
		plain.ProcessEdge(e)
	}
	if w.Rotations() != 0 {
		t.Fatalf("Rotations = %d, want 0 (edges fit the first generation)", w.Rotations())
	}
	assertWindowedMatchesPlain(t, w, plain, 220)
}

// TestWindowedRotatedMeasuresMatchFreshStore: after a gap larger than
// the whole window, the windowed store must agree bitwise with a plain
// SketchStore fed only the post-gap (live-window) edges — the old
// cohort's registers must leave no trace in any measure. The post-gap
// edges straddle several generation spans, so the merged-register path
// is exercised across multiple live generations, not just one.
func TestWindowedRotatedMeasuresMatchFreshStore(t *testing.T) {
	const gap = int64(1_700_000_000)
	w, err := NewWindowed(Config{K: 64, Seed: 29}, 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Pre-gap cohort: hubs 1 and 2 with 20 shared neighbors. All of it
	// must expire.
	for i := uint64(10); i < 30; i++ {
		w.ProcessEdge(stream.Edge{U: 1, V: i, T: 0})
		w.ProcessEdge(stream.Edge{U: 2, V: i, T: 0})
	}
	fresh, err := NewSketchStore(Config{K: 64, Seed: 29, Degrees: DegreeDistinctKMV})
	if err != nil {
		t.Fatal(err)
	}
	// Post-gap cohort: hubs 5 and 6 share neighbors 40..59, with
	// timestamps spread over ~60 units so the live window spans several
	// generations (span = 25).
	for i := uint64(40); i < 60; i++ {
		ts := gap + int64(i-40)*3
		for _, e := range []stream.Edge{
			{U: 5, V: i, T: ts},
			{U: 6, V: i, T: ts + 1},
		} {
			w.ProcessEdge(e)
			fresh.ProcessEdge(e)
		}
	}
	if w.Rotations() == 0 {
		t.Fatal("expected rotations across the gap")
	}
	if w.Knows(1) || w.Knows(2) {
		t.Fatal("pre-gap cohort should have expired")
	}
	if w.NumEdges() != fresh.NumEdges() {
		t.Fatalf("NumEdges = %d, fresh = %d", w.NumEdges(), fresh.NumEdges())
	}
	assertWindowedMatchesPlain(t, w, fresh, 70)
}
