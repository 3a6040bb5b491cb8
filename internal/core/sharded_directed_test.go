package core

import (
	"math"
	"sync"
	"testing"

	"linkpred/internal/rng"
	"linkpred/internal/stream"
)

func TestNewShardedDirectedValidation(t *testing.T) {
	if _, err := NewShardedDirected(Config{K: 8}, 0); err == nil {
		t.Error("nShards=0 should error")
	}
	if _, err := NewShardedDirected(Config{K: 0}, 2); err == nil {
		t.Error("bad K should error")
	}
	if _, err := NewShardedDirected(Config{K: 8, EnableBiased: true}, 2); err == nil {
		t.Error("EnableBiased should be rejected")
	}
	s, err := NewShardedDirected(Config{K: 8, Seed: 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumShards() != 4 || s.Config().K != 8 {
		t.Error("accessors wrong")
	}
}

func TestShardedDirectedMatchesUnsharded(t *testing.T) {
	arcs := randomArcs(200, 5000, 801)
	cfg := Config{K: 64, Seed: 809}
	plain, err := NewDirectedStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range arcs {
		plain.ProcessArc(a)
	}
	for _, nShards := range []int{1, 4} {
		sharded, err := NewShardedDirected(cfg, nShards)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range arcs {
			sharded.ProcessArc(a)
		}
		if sharded.NumVertices() != plain.NumVertices() || sharded.NumArcs() != plain.NumArcs() {
			t.Errorf("shards=%d: counts differ", nShards)
		}
		x := rng.NewXoshiro256(811)
		for i := 0; i < 300; i++ {
			u, v := uint64(x.Intn(200)), uint64(x.Intn(200))
			if a, b := est(sharded, QueryJaccard, u, v), est(plain, QueryJaccard, u, v); a != b {
				t.Fatalf("shards=%d: J(%d→%d) %v != %v", nShards, u, v, a, b)
			}
			if a, b := est(sharded, QueryCommonNeighbors, u, v), est(plain, QueryCommonNeighbors, u, v); a != b {
				t.Fatalf("shards=%d: CN(%d→%d) %v != %v", nShards, u, v, a, b)
			}
			if a, b := est(sharded, QueryAdamicAdar, u, v), est(plain, QueryAdamicAdar, u, v); math.Abs(a-b) > 1e-12 {
				t.Fatalf("shards=%d: AA(%d→%d) %v != %v", nShards, u, v, a, b)
			}
			if a, b := est(sharded, QueryResourceAllocation, u, v), est(plain, QueryResourceAllocation, u, v); math.Abs(a-b) > 1e-12 {
				t.Fatalf("shards=%d: RA(%d→%d) %v != %v", nShards, u, v, a, b)
			}
			if a, b := est(sharded, QueryPreferentialAttachment, u, v), est(plain, QueryPreferentialAttachment, u, v); a != b {
				t.Fatalf("shards=%d: PA(%d→%d) %v != %v", nShards, u, v, a, b)
			}
			if a, b := est(sharded, QueryCosine, u, v), est(plain, QueryCosine, u, v); a != b {
				t.Fatalf("shards=%d: cosine(%d→%d) %v != %v", nShards, u, v, a, b)
			}
			if sharded.OutDegree(u) != plain.OutDegree(u) || sharded.InDegree(u) != plain.InDegree(u) {
				t.Fatalf("shards=%d: degrees diverge at %d", nShards, u)
			}
		}
	}
}

func TestShardedDirectedConcurrent(t *testing.T) {
	arcs := randomArcs(150, 8000, 821)
	cfg := Config{K: 32, Seed: 823}
	sequential, _ := NewDirectedStore(cfg)
	for _, a := range arcs {
		sequential.ProcessArc(a)
	}
	sharded, err := NewShardedDirected(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	chunk := len(arcs) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if w == workers-1 {
			hi = len(arcs)
		}
		wg.Add(1)
		go func(part []stream.Edge) {
			defer wg.Done()
			for _, a := range part {
				sharded.ProcessArc(a)
			}
		}(arcs[lo:hi])
	}
	// Concurrent queries while ingesting.
	wg.Add(1)
	go func() {
		defer wg.Done()
		x := rng.NewXoshiro256(827)
		for i := 0; i < 3000; i++ {
			u, v := uint64(x.Intn(150)), uint64(x.Intn(150))
			if j := est(sharded, QueryJaccard, u, v); j < 0 || j > 1 || math.IsNaN(j) {
				t.Errorf("J(%d→%d) = %v invalid mid-ingest", u, v, j)
				return
			}
			if aa := est(sharded, QueryAdamicAdar, u, v); aa < 0 || math.IsNaN(aa) || math.IsInf(aa, 0) {
				t.Errorf("AA(%d→%d) = %v invalid mid-ingest", u, v, aa)
				return
			}
		}
	}()
	wg.Wait()
	if sharded.NumArcs() != int64(len(arcs)) {
		t.Fatalf("NumArcs = %d, want %d", sharded.NumArcs(), len(arcs))
	}
	x := rng.NewXoshiro256(829)
	for i := 0; i < 300; i++ {
		u, v := uint64(x.Intn(150)), uint64(x.Intn(150))
		if est(sharded, QueryJaccard, u, v) != est(sequential, QueryJaccard, u, v) {
			t.Fatalf("concurrent ingest diverges at J(%d→%d)", u, v)
		}
	}
	if sharded.MemoryBytes() <= 0 {
		t.Error("memory accounting broken")
	}
}

func TestShardedDirectedSelfLoopAndUnknown(t *testing.T) {
	s, _ := NewShardedDirected(Config{K: 8, Seed: 1}, 2)
	s.ProcessArc(stream.Edge{U: 3, V: 3})
	if s.NumArcs() != 0 || s.Knows(3) {
		t.Error("self-loop should be ignored")
	}
	s.ProcessArc(stream.Edge{U: 1, V: 2})
	if est(s, QueryJaccard, 1, 99) != 0 || est(s, QueryCommonNeighbors, 99, 1) != 0 {
		t.Error("unknown vertices must score 0")
	}
}
