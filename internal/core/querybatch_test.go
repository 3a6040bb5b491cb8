package core

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"linkpred/internal/rng"
	"linkpred/internal/stream"
)

// sameFloat reports bit-identity, treating any NaN as equal to any NaN
// (the batch path must reproduce the sequential estimators exactly; NaN
// payload bits are the one representation detail the spec does not pin).
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// batchEdges builds a small scale-free-ish multigraph with duplicates
// and returns the edge list plus a candidate list that exercises every
// awkward case: unknown ids, the source itself, and duplicates.
func batchEdges(seed uint64, nEdges int) ([]stream.Edge, []uint64) {
	x := rng.NewXoshiro256(seed)
	edges := make([]stream.Edge, 0, nEdges)
	for i := 0; i < nEdges; i++ {
		u := uint64(x.Intn(200))
		v := uint64(x.Intn(200))
		edges = append(edges, stream.Edge{U: u, V: v, T: int64(i)})
	}
	cands := make([]uint64, 0, 260)
	for v := uint64(0); v < 220; v++ { // 200..219 are unknown
		cands = append(cands, v)
	}
	for i := 0; i < 40; i++ { // duplicates
		cands = append(cands, uint64(x.Intn(220)))
	}
	return edges, cands
}

var allQueryMeasures = []QueryMeasure{
	QueryJaccard, QueryCommonNeighbors, QueryAdamicAdar,
	QueryResourceAllocation, QueryPreferentialAttachment, QueryCosine,
}

func TestShardedScoreBatchMatchesSequential(t *testing.T) {
	for _, degrees := range []DegreeMode{DegreeArrivals, DegreeDistinctKMV} {
		edges, cands := batchEdges(7, 2000)
		s, err := NewSharded(Config{K: 32, Seed: 9, Degrees: degrees}, 8)
		if err != nil {
			t.Fatal(err)
		}
		s.IngestBatch(edges, nil)
		for _, src := range []uint64{edges[0].U, 3, 999 /* unknown */} {
			for _, m := range allQueryMeasures {
				got, err := s.ScoreBatch(m, src, cands, nil, nil)
				if err != nil {
					t.Fatalf("degrees=%v ScoreBatch(%v): %v", degrees, m, err)
				}
				if len(got) != len(cands) {
					t.Fatalf("got %d scores for %d candidates", len(got), len(cands))
				}
				for i, v := range cands {
					want := est(s, m, src, v)
					if !sameFloat(got[i], want) {
						t.Fatalf("degrees=%v m=%v u=%d v=%d: batch=%v seq=%v",
							degrees, m, src, v, got[i], want)
					}
				}
			}
		}
	}
}

func TestShardedScoreBatchRejectsBadMeasure(t *testing.T) {
	s, err := NewSharded(Config{K: 8, Seed: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ScoreBatch(QueryMeasure(99), 1, []uint64{2}, nil, nil); err == nil {
		t.Fatal("want error for invalid measure")
	}
}

func TestShardedDirectedScoreBatchMatchesSequential(t *testing.T) {
	for _, degrees := range []DegreeMode{DegreeArrivals, DegreeDistinctKMV} {
		edges, cands := batchEdges(11, 2000)
		s, err := NewShardedDirected(Config{K: 32, Seed: 5, Degrees: degrees}, 8)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range edges {
			s.ProcessArc(e)
		}
		for _, src := range []uint64{edges[0].U, 3, 999} {
			for _, m := range allQueryMeasures {
				got, err := s.ScoreBatch(m, src, cands, nil, nil)
				if err != nil {
					t.Fatalf("degrees=%v ScoreBatch(%v): %v", degrees, m, err)
				}
				for i, v := range cands {
					if want := est(s, m, src, v); !sameFloat(got[i], want) {
						t.Fatalf("degrees=%v m=%v u=%d v=%d: batch=%v seq=%v",
							degrees, m, src, v, got[i], want)
					}
				}
			}
		}
	}
}

func TestSketchStoreScoreBatchMatchesSequential(t *testing.T) {
	for _, degrees := range []DegreeMode{DegreeArrivals, DegreeDistinctKMV} {
		edges, cands := batchEdges(13, 2000)
		s, err := NewSketchStore(Config{K: 32, Seed: 3, Degrees: degrees})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range edges {
			s.ProcessEdge(e)
		}
		for _, src := range []uint64{edges[0].U, 3, 999} {
			for _, m := range allQueryMeasures {
				got, err := s.ScoreBatch(m, src, cands, nil, nil)
				if err != nil {
					t.Fatalf("degrees=%v ScoreBatch(%v): %v", degrees, m, err)
				}
				for i, v := range cands {
					if want := est(s, m, src, v); !sameFloat(got[i], want) {
						t.Fatalf("degrees=%v m=%v u=%d v=%d: batch=%v seq=%v",
							degrees, m, src, v, got[i], want)
					}
				}
			}
		}
	}
}

func TestWindowedScoreBatchMatchesSequential(t *testing.T) {
	edges, cands := batchEdges(17, 2000)
	w, err := NewWindowed(Config{K: 32, Seed: 21, Degrees: DegreeDistinctKMV}, 500, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		w.ProcessEdge(e) // timestamps 0..1999 force rotations mid-stream
	}
	for _, src := range []uint64{edges[len(edges)-1].U, 3, 999} {
		for _, m := range allQueryMeasures {
			got, err := w.ScoreBatch(m, src, cands, nil, nil)
			if err != nil {
				t.Fatalf("ScoreBatch(%v): %v", m, err)
			}
			for i, v := range cands {
				if want := est(w, m, src, v); !sameFloat(got[i], want) {
					t.Fatalf("m=%v u=%d v=%d: batch=%v seq=%v", m, src, v, got[i], want)
				}
			}
		}
	}
}

// TestShardedScoreBatchRace exercises batched queries racing batched and
// per-edge writers; run with -race. Scores are not asserted (writers are
// concurrent), only memory safety and result shape.
func TestShardedScoreBatchRace(t *testing.T) {
	edges, cands := batchEdges(23, 4000)
	s, err := NewSharded(Config{K: 16, Seed: 2}, 8)
	if err != nil {
		t.Fatal(err)
	}
	s.IngestBatch(edges[:1000], nil)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(chunk []stream.Edge) {
			defer wg.Done()
			for lo := 0; lo < len(chunk); lo += 128 {
				s.IngestBatch(chunk[lo:min(lo+128, len(chunk))], nil)
			}
		}(edges[1000+w*1500 : 1000+(w+1)*1500])
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				m := allQueryMeasures[i%len(allQueryMeasures)]
				got, err := s.ScoreBatch(m, cands[i%len(cands)], cands, nil, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if len(got) != len(cands) {
					t.Errorf("got %d scores, want %d", len(got), len(cands))
					return
				}
			}
		}(uint64(r))
	}
	wg.Wait()
}

// TestShardedGauges verifies the lock-free NumVertices/MemoryBytes
// gauges stay exact through per-edge ingest, batched ingest, and a
// save/load roundtrip.
func TestShardedGauges(t *testing.T) {
	edges, _ := batchEdges(29, 3000)
	s, err := NewSharded(Config{K: 16, Seed: 4}, 8)
	if err != nil {
		t.Fatal(err)
	}
	check := func(label string, s *Sharded) {
		t.Helper()
		n, mem := 0, 0
		for i := range s.shards {
			s.mus[i].RLock()
			n += len(s.shards[i].vertices)
			mem += s.shards[i].bank.memoryBytes() + len(s.shards[i].vertices)*vertexOverhead
			s.mus[i].RUnlock()
		}
		if got := s.NumVertices(); got != n {
			t.Fatalf("%s: NumVertices=%d, locked recount=%d", label, got, n)
		}
		if got := s.MemoryBytes(); got != mem {
			t.Fatalf("%s: MemoryBytes=%d, locked recount=%d", label, got, mem)
		}
	}
	for _, e := range edges[:500] {
		s.ProcessEdge(e)
	}
	check("per-edge", s)
	s.IngestBatch(edges[500:], nil)
	check("batched", s)

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSharded(&buf)
	if err != nil {
		t.Fatal(err)
	}
	check("loaded", loaded)
	if loaded.NumVertices() != s.NumVertices() || loaded.MemoryBytes() != s.MemoryBytes() {
		t.Fatalf("roundtrip gauges drifted: %d/%d vs %d/%d",
			loaded.NumVertices(), loaded.MemoryBytes(), s.NumVertices(), s.MemoryBytes())
	}
}
