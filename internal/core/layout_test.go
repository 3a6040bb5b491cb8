package core

import (
	"sync"
	"testing"

	"linkpred/internal/stream"
)

// Layout-equivalence suite for the struct-of-arrays register banks: the
// bank refactor must be invisible in every score bit. Two invariants
// pin that down on a quiescent store:
//
//  1. scalar/batch identity — ScoreBatch (which reads contiguous bank
//     spans, uses the branch-free kernel, and recycles pooled scratch)
//     returns bit-identical floats to the per-pair Estimate path, for
//     all six measures, in every store mode;
//  2. cross-mode identity — the sharded stores score identically to
//     their single-writer counterparts on the same stream, so the
//     per-shard banks hold exactly the registers the single bank would.

type scoreStore interface {
	Estimate(m QueryMeasure, u, v uint64) (float64, error)
	ScoreBatch(m QueryMeasure, u uint64, candidates []uint64, out []float64, done <-chan struct{}) ([]float64, error)
}

// scalarStore is the subset every mode has; DirectedStore serves its
// batch queries through ShardedDirected, so it only appears as a twin.
type scalarStore interface {
	Estimate(m QueryMeasure, u, v uint64) (float64, error)
}

func TestLayoutEquivalenceTable(t *testing.T) {
	edges, cands := batchEdges(31, 3000)
	cfg := Config{K: 48, Seed: 77, Degrees: DegreeDistinctKMV}
	sources := []uint64{edges[0].U, edges[1].V, 7, 999 /* unknown */}

	single, err := NewSketchStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewSharded(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	directed, err := NewDirectedStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	shardedDir, err := NewShardedDirected(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	windowed, err := NewWindowed(cfg, 1000, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		single.ProcessEdge(e)
		directed.ProcessArc(e)
		windowed.ProcessEdge(e)
	}
	sharded.IngestBatch(edges, nil)
	shardedDir.IngestBatch(edges, nil)

	modes := []struct {
		name  string
		store scoreStore
		// twin scores the same stream through an independent layout
		// (single vs per-shard banks); nil when the mode has no twin.
		twin scalarStore
	}{
		{"single", single, sharded},
		{"sharded", sharded, single},
		{"sharded-directed", shardedDir, directed},
		{"windowed", windowed, nil},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			for _, m := range allQueryMeasures {
				for _, src := range sources {
					batch, err := mode.store.ScoreBatch(m, src, cands, nil, nil)
					if err != nil {
						t.Fatalf("m=%v: %v", m, err)
					}
					for i, v := range cands {
						scalar, err := mode.store.Estimate(m, src, v)
						if err != nil {
							t.Fatalf("m=%v u=%d v=%d: %v", m, src, v, err)
						}
						if !sameFloat(batch[i], scalar) {
							t.Fatalf("m=%v u=%d v=%d: batch %v != scalar %v", m, src, v, batch[i], scalar)
						}
						if mode.twin != nil {
							other, err := mode.twin.Estimate(m, src, v)
							if err != nil {
								t.Fatalf("m=%v u=%d v=%d (twin): %v", m, src, v, err)
							}
							if !sameFloat(scalar, other) {
								t.Fatalf("m=%v u=%d v=%d: %v != twin's %v", m, src, v, scalar, other)
							}
						}
					}
				}
			}
		})
	}
}

// TestPooledScratchScoreBatchRacesWriter stresses the interaction the
// SoA layout makes delicate: ScoreBatch readers copy register spans out
// of the banks with pooled scratch while concurrent writers add fresh
// vertices — which grows the banks and moves their backing arrays. Run
// with -race; correctness of individual scores is not asserted (the
// stream is moving), only memory safety, shape, and scratch hygiene.
func TestPooledScratchScoreBatchRacesWriter(t *testing.T) {
	edges, cands := batchEdges(37, 6000)
	// Push the id space well past the warm-up prefix so the writers keep
	// minting vertices (and therefore bank growth) throughout the race.
	for i := range edges[3000:] {
		edges[3000+i].U += uint64(i % 800)
	}
	sharded, err := NewSharded(Config{K: 32, Seed: 19}, 4)
	if err != nil {
		t.Fatal(err)
	}
	shardedDir, err := NewShardedDirected(Config{K: 32, Seed: 19}, 4)
	if err != nil {
		t.Fatal(err)
	}
	sharded.IngestBatch(edges[:500], nil)
	shardedDir.IngestBatch(edges[:500], nil)

	var wg sync.WaitGroup
	writer := func(apply func([]stream.Edge)) {
		defer wg.Done()
		for lo := 500; lo < len(edges); lo += 64 {
			apply(edges[lo:min(lo+64, len(edges))])
		}
	}
	reader := func(store scoreStore, seed int) {
		defer wg.Done()
		var out []float64
		for i := 0; i < 40; i++ {
			m := allQueryMeasures[(seed+i)%len(allQueryMeasures)]
			got, err := store.ScoreBatch(m, cands[(seed+i)%len(cands)], cands, out, nil)
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
	go writer(func(b []stream.Edge) { shardedDir.IngestBatch(b, nil) })
	go reader(sharded, 0)
	go reader(sharded, 1)
	go reader(shardedDir, 2)
	go reader(shardedDir, 3)
	wg.Wait()
}
