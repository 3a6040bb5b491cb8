package core

import (
	"math"
	"sync"
	"testing"

	"linkpred/internal/rng"
	"linkpred/internal/stream"
)

func TestNewShardedValidation(t *testing.T) {
	if _, err := NewSharded(Config{K: 8}, 0); err == nil {
		t.Error("nShards=0 should error")
	}
	if _, err := NewSharded(Config{K: 0}, 4); err == nil {
		t.Error("bad K should error")
	}
	if _, err := NewSharded(Config{K: 8, EnableBiased: true}, 4); err == nil {
		t.Error("EnableBiased should be rejected in sharded mode")
	}
	s, err := NewSharded(Config{K: 8, Seed: 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumShards() != 4 {
		t.Errorf("NumShards = %d", s.NumShards())
	}
	if s.Config().K != 8 {
		t.Errorf("Config().K = %d", s.Config().K)
	}
}

// TestShardedMatchesUnsharded: identical streams through a plain store
// and a sharded store (any shard count) must produce identical Jaccard /
// CN estimates and degrees — sharding is an implementation detail, not a
// semantic one.
func TestShardedMatchesUnsharded(t *testing.T) {
	edges := randomEdges(200, 4000, 401)
	cfg := Config{K: 64, Seed: 409}
	plain, err := NewSketchStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		plain.ProcessEdge(e)
	}
	for _, nShards := range []int{1, 3, 8} {
		sharded, err := NewSharded(cfg, nShards)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range edges {
			sharded.ProcessEdge(e)
		}
		if sharded.NumVertices() != plain.NumVertices() {
			t.Errorf("shards=%d: NumVertices %d != %d", nShards, sharded.NumVertices(), plain.NumVertices())
		}
		if sharded.NumEdges() != plain.NumEdges() {
			t.Errorf("shards=%d: NumEdges %d != %d", nShards, sharded.NumEdges(), plain.NumEdges())
		}
		x := rng.NewXoshiro256(419)
		for i := 0; i < 300; i++ {
			u, v := uint64(x.Intn(200)), uint64(x.Intn(200))
			if a, b := est(sharded, QueryJaccard, u, v), est(plain, QueryJaccard, u, v); a != b {
				t.Fatalf("shards=%d: Jaccard(%d,%d) %v != %v", nShards, u, v, a, b)
			}
			if a, b := est(sharded, QueryCommonNeighbors, u, v), est(plain, QueryCommonNeighbors, u, v); a != b {
				t.Fatalf("shards=%d: CN(%d,%d) %v != %v", nShards, u, v, a, b)
			}
			if a, b := est(sharded, QueryAdamicAdar, u, v), est(plain, QueryAdamicAdar, u, v); math.Abs(a-b) > 1e-12 {
				t.Fatalf("shards=%d: AA(%d,%d) %v != %v", nShards, u, v, a, b)
			}
			if a, b := sharded.Degree(u), plain.Degree(u); a != b {
				t.Fatalf("shards=%d: Degree(%d) %v != %v", nShards, u, a, b)
			}
		}
	}
}

// TestShardedConcurrentIngest hammers a sharded store from many
// goroutines and checks the result equals sequential ingest of the same
// multiset of edges (order within the stream does not matter for the
// sketches: min is commutative; degrees are counters).
func TestShardedConcurrentIngest(t *testing.T) {
	edges := randomEdges(150, 8000, 421)
	cfg := Config{K: 32, Seed: 431}
	sequential, _ := NewSketchStore(cfg)
	for _, e := range edges {
		sequential.ProcessEdge(e)
	}
	sharded, err := NewSharded(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	chunk := len(edges) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if w == workers-1 {
			hi = len(edges)
		}
		wg.Add(1)
		go func(part []stream.Edge) {
			defer wg.Done()
			for _, e := range part {
				sharded.ProcessEdge(e)
			}
		}(edges[lo:hi])
	}
	wg.Wait()
	if sharded.NumEdges() != int64(len(edges)) {
		t.Fatalf("NumEdges = %d, want %d", sharded.NumEdges(), len(edges))
	}
	x := rng.NewXoshiro256(433)
	for i := 0; i < 300; i++ {
		u, v := uint64(x.Intn(150)), uint64(x.Intn(150))
		if a, b := est(sharded, QueryJaccard, u, v), est(sequential, QueryJaccard, u, v); a != b {
			t.Fatalf("concurrent ingest diverges at Jaccard(%d,%d): %v != %v", u, v, a, b)
		}
		if a, b := sharded.Degree(u), sequential.Degree(u); a != b {
			t.Fatalf("concurrent ingest diverges at Degree(%d): %v != %v", u, a, b)
		}
	}
}

// TestShardedConcurrentQueriesDuringIngest runs queries and ingest
// simultaneously; under -race this validates the locking discipline.
func TestShardedConcurrentQueriesDuringIngest(t *testing.T) {
	edges := randomEdges(100, 6000, 439)
	sharded, err := NewSharded(Config{K: 32, Seed: 443}, 4)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, e := range edges {
			sharded.ProcessEdge(e)
		}
	}()
	for q := 0; q < 4; q++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			x := rng.NewXoshiro256(seed)
			for i := 0; i < 2000; i++ {
				u, v := uint64(x.Intn(100)), uint64(x.Intn(100))
				if j := est(sharded, QueryJaccard, u, v); j < 0 || j > 1 || math.IsNaN(j) {
					t.Errorf("Jaccard(%d,%d) = %v out of range mid-ingest", u, v, j)
					return
				}
				if aa := est(sharded, QueryAdamicAdar, u, v); aa < 0 || math.IsNaN(aa) || math.IsInf(aa, 0) {
					t.Errorf("AA(%d,%d) = %v invalid mid-ingest", u, v, aa)
					return
				}
				if ra := est(sharded, QueryResourceAllocation, u, v); ra < 0 || math.IsNaN(ra) {
					t.Errorf("RA(%d,%d) = %v invalid mid-ingest", u, v, ra)
					return
				}
				sharded.Degree(u)
				sharded.Knows(v)
			}
		}(uint64(q) + 449)
	}
	wg.Wait()
	if sharded.MemoryBytes() <= 0 || sharded.NumVertices() == 0 {
		t.Error("post-ingest accounting broken")
	}
}

func TestShardedSelfLoopIgnored(t *testing.T) {
	s, _ := NewSharded(Config{K: 8, Seed: 1}, 2)
	s.ProcessEdge(stream.Edge{U: 5, V: 5})
	if s.NumEdges() != 0 || s.Knows(5) {
		t.Error("self-loop should be ignored in sharded mode")
	}
}

func TestShardedUnknownVertices(t *testing.T) {
	s, _ := NewSharded(Config{K: 8, Seed: 1}, 2)
	s.ProcessEdge(stream.Edge{U: 1, V: 2})
	if est(s, QueryJaccard, 1, 99) != 0 || est(s, QueryCommonNeighbors, 99, 98) != 0 ||
		est(s, QueryAdamicAdar, 1, 99) != 0 || s.Degree(99) != 0 {
		t.Error("unknown vertices must score 0")
	}
}

func TestShardedCosineAndPAMatchSingleStore(t *testing.T) {
	// The sharded cosine and preferential-attachment estimators must
	// agree with the single-threaded SketchStore fed the same stream
	// (registers are identical; both derive from matches + degrees).
	cfg := Config{K: 128, Seed: 41, Degrees: DegreeDistinctKMV}
	single, err := NewSketchStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewSharded(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	x := rng.NewXoshiro256(43)
	for i := 0; i < 3000; i++ {
		e := stream.Edge{U: x.Uint64() % 100, V: x.Uint64() % 100}
		single.ProcessEdge(e)
		sharded.ProcessEdge(e)
	}
	for i := 0; i < 200; i++ {
		u, v := x.Uint64()%100, x.Uint64()%100
		if got, want := est(sharded, QueryPreferentialAttachment, u, v), est(single, QueryPreferentialAttachment, u, v); got != want {
			t.Fatalf("PA(%d,%d) = %v, single store = %v", u, v, got, want)
		}
		got, want := est(sharded, QueryCosine, u, v), est(single, QueryCosine, u, v)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("cosine(%d,%d) = %v, single store = %v", u, v, got, want)
		}
	}
	// Unknown and isolated vertices score 0, not NaN.
	if c := est(sharded, QueryCosine, 1, 999_999); c != 0 {
		t.Errorf("cosine with unknown vertex = %v, want 0", c)
	}
	if pa := est(sharded, QueryPreferentialAttachment, 999_998, 999_999); pa != 0 {
		t.Errorf("PA with unknown vertices = %v, want 0", pa)
	}
}
