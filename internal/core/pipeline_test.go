package core

import (
	"bytes"
	"io"
	"runtime"
	"sync"
	"testing"

	"linkpred/internal/stream"
)

// pipelineSaveBytes serializes a store for byte-identity assertions.
func pipelineSaveBytes(t *testing.T, save func(io.Writer) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPipelineMatchesSequential is the pipeline determinism contract:
// ingest through forced shard-owner workers must leave the store
// register-identical to sequential per-edge ingest — the same assertion
// the lock-handoff batch path makes, carried across the owner
// goroutines (and re-checked as Save byte-identity).
func TestPipelineMatchesSequential(t *testing.T) {
	edges := randomEdges(300, 6000, 30211)
	for i := 0; i < len(edges); i += 89 {
		edges[i].V = edges[i].U // self-loops must be skipped on every path
	}
	edges = append(edges, edges[:75]...) // duplicates must fold idempotently
	cfg := Config{K: 48, Seed: 30213}
	plain, err := NewSketchStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		plain.ProcessEdge(e)
	}
	seqStore, err := NewSharded(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	seqStore.IngestBatch(edges, nil)
	want := pipelineSaveBytes(t, seqStore.Save)

	for _, workers := range []int{1, 2, 5} {
		for _, batch := range []int{7, 256, len(edges)} {
			s, err := NewSharded(cfg, 8)
			if err != nil {
				t.Fatal(err)
			}
			if !s.StartPipeline(workers, 0) {
				t.Fatalf("StartPipeline(%d) refused", workers)
			}
			for lo := 0; lo < len(edges); lo += batch {
				hi := lo + batch
				if hi > len(edges) {
					hi = len(edges)
				}
				s.IngestBatch(edges[lo:hi], nil)
			}
			if s.NumEdges() != plain.NumEdges() {
				t.Fatalf("workers=%d batch=%d: NumEdges %d != %d", workers, batch, s.NumEdges(), plain.NumEdges())
			}
			shardedRegistersEqual(t, s, plain)
			s.StopPipeline()
			if got := pipelineSaveBytes(t, s.Save); !bytes.Equal(got, want) {
				t.Fatalf("workers=%d batch=%d: pipeline Save differs from sequential Save", workers, batch)
			}
		}
	}
}

// TestPipelineDirectedMatchesSequential is the directed determinism
// contract, asserted as Save byte-identity against the lock-handoff
// path.
func TestPipelineDirectedMatchesSequential(t *testing.T) {
	arcs := randomEdges(200, 5000, 30217)
	cfg := Config{K: 32, Seed: 30223}
	seqStore, err := NewShardedDirected(cfg, 6)
	if err != nil {
		t.Fatal(err)
	}
	seqStore.IngestBatch(arcs, nil)
	want := pipelineSaveBytes(t, seqStore.Save)

	for _, workers := range []int{1, 3} {
		s, err := NewShardedDirected(cfg, 6)
		if err != nil {
			t.Fatal(err)
		}
		if !s.StartPipeline(workers, 0) {
			t.Fatalf("StartPipeline(%d) refused", workers)
		}
		for lo := 0; lo < len(arcs); lo += 512 {
			hi := lo + 512
			if hi > len(arcs) {
				hi = len(arcs)
			}
			s.IngestBatch(arcs[lo:hi], nil)
		}
		s.StopPipeline()
		if got := pipelineSaveBytes(t, s.Save); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: directed pipeline Save differs from sequential Save", workers)
		}
	}
}

// TestPipelineAsyncFlush covers the async publish path used by batched
// WAL replay: ProcessEdgesAsync returns before the applies, FlushIngest
// is the barrier, and the result is byte-identical to synchronous
// ingest. Without a pipeline the async entry points degrade to the
// synchronous ones.
func TestPipelineAsyncFlush(t *testing.T) {
	edges := randomEdges(250, 4000, 30241)
	cfg := Config{K: 32, Seed: 30253}
	seqStore, err := NewSharded(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	seqStore.IngestBatch(edges, nil)
	want := pipelineSaveBytes(t, seqStore.Save)

	s, err := NewSharded(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !s.StartPipeline(2, 0) {
		t.Fatal("StartPipeline refused")
	}
	for lo := 0; lo < len(edges); lo += 128 {
		hi := lo + 128
		if hi > len(edges) {
			hi = len(edges)
		}
		s.ProcessEdgesAsync(edges[lo:hi])
	}
	s.FlushIngest()
	if st, ok := s.PipelineStats(); !ok || st.Outstanding != 0 {
		t.Fatalf("after FlushIngest: stats ok=%v outstanding=%d", ok, st.Outstanding)
	}
	if s.NumEdges() != seqStore.NumEdges() {
		t.Fatalf("NumEdges %d != %d after flush", s.NumEdges(), seqStore.NumEdges())
	}
	s.StopPipeline()
	if got := pipelineSaveBytes(t, s.Save); !bytes.Equal(got, want) {
		t.Fatal("async pipeline Save differs from sequential Save")
	}

	// No pipeline: async entry points must behave exactly like the
	// synchronous ones.
	s2, err := NewSharded(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	s2.ProcessEdgesAsync(edges)
	s2.FlushIngest()
	if got := pipelineSaveBytes(t, s2.Save); !bytes.Equal(got, want) {
		t.Fatal("pipeline-less ProcessEdgesAsync differs from IngestBatch")
	}
}

// TestPipelineStartPolicy pins the workers knob: auto stays synchronous
// at GOMAXPROCS=1, negative disables, forced counts are capped by the
// shard count, and a second start on a running pipeline is refused.
func TestPipelineStartPolicy(t *testing.T) {
	s, err := NewSharded(Config{K: 8, Seed: 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if runtime.GOMAXPROCS(0) == 1 {
		if s.StartPipeline(0, 0) {
			t.Fatal("auto workers must stay synchronous at GOMAXPROCS=1")
		}
	}
	if s.StartPipeline(-1, 0) {
		t.Fatal("negative workers must disable the pipeline")
	}
	if !s.StartPipeline(64, 0) {
		t.Fatal("forced workers refused")
	}
	st, ok := s.PipelineStats()
	if !ok {
		t.Fatal("no stats from a running pipeline")
	}
	if st.Workers != 4 {
		t.Fatalf("workers = %d, want capped to 4 shards", st.Workers)
	}
	if s.StartPipeline(2, 0) {
		t.Fatal("second StartPipeline on a running pipeline must be refused")
	}
	s.StopPipeline()
	if _, ok := s.PipelineStats(); ok {
		t.Fatal("stats ok after StopPipeline")
	}
	s.StopPipeline() // second stop is a no-op
}

// TestPipelineBackpressureStats drives many async batches through a
// tiny ring and checks the observability gauges: ring capacity honors
// the requested size, depths are bounded by it, and batches are never
// lost under backpressure (stalls spin, they don't drop).
func TestPipelineBackpressureStats(t *testing.T) {
	edges := randomEdges(200, 6000, 30259)
	s, err := NewSharded(Config{K: 16, Seed: 30269}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !s.StartPipeline(2, 2) {
		t.Fatal("StartPipeline refused")
	}
	st, _ := s.PipelineStats()
	if st.RingCapacity != 2 {
		t.Fatalf("ring capacity = %d, want 2", st.RingCapacity)
	}
	if len(st.RingDepths) != 2 {
		t.Fatalf("ring depths for %d owners, want 2", len(st.RingDepths))
	}
	for lo := 0; lo < len(edges); lo += 16 {
		hi := lo + 16
		if hi > len(edges) {
			hi = len(edges)
		}
		s.ProcessEdgesAsync(edges[lo:hi])
		if st, _ := s.PipelineStats(); st.MemoryBytes <= 0 {
			t.Fatal("running pipeline must report a positive footprint")
		}
	}
	s.FlushIngest()
	st, _ = s.PipelineStats()
	if st.Outstanding != 0 {
		t.Fatalf("outstanding = %d after flush", st.Outstanding)
	}
	if st.Stalls < 0 || st.OwnerParks < 0 {
		t.Fatalf("negative gauges: stalls=%d parks=%d", st.Stalls, st.OwnerParks)
	}
	s.StopPipeline()
	ref, err := NewSharded(Config{K: 16, Seed: 30269}, 4)
	if err != nil {
		t.Fatal(err)
	}
	ref.IngestBatch(edges, nil)
	if !bytes.Equal(pipelineSaveBytes(t, s.Save), pipelineSaveBytes(t, ref.Save)) {
		t.Fatal("backpressured ingest lost or reordered register updates")
	}
}

// TestPipelineGaugeConsistency is the gauge-drift regression test: the
// apply-maintained NumVertices/NumEdges/MemoryBytes gauges after
// pipelined ingest must agree exactly with a Save/LoadSharded round
// trip, whose loader recomputes them from scratch.
func TestPipelineGaugeConsistency(t *testing.T) {
	edges := randomEdges(300, 5000, 30271)
	s, err := NewSharded(Config{K: 32, Seed: 30293}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !s.StartPipeline(3, 0) {
		t.Fatal("StartPipeline refused")
	}
	for lo := 0; lo < len(edges); lo += 64 {
		hi := lo + 64
		if hi > len(edges) {
			hi = len(edges)
		}
		s.IngestBatch(edges[lo:hi], nil)
	}
	s.StopPipeline()
	loaded, err := LoadSharded(bytes.NewReader(pipelineSaveBytes(t, s.Save)))
	if err != nil {
		t.Fatal(err)
	}
	if s.NumVertices() != loaded.NumVertices() {
		t.Fatalf("NumVertices drifted: live %d, round-trip %d", s.NumVertices(), loaded.NumVertices())
	}
	if s.NumEdges() != loaded.NumEdges() {
		t.Fatalf("NumEdges drifted: live %d, round-trip %d", s.NumEdges(), loaded.NumEdges())
	}
	if s.MemoryBytes() != loaded.MemoryBytes() {
		t.Fatalf("MemoryBytes drifted: live %d, round-trip %d (pipeline scratch must leave the gauge on stop)",
			s.MemoryBytes(), loaded.MemoryBytes())
	}
}

// TestPipelineRaceStress is the -race soak: concurrent batch producers,
// per-edge writers, async publishers, queries, stats scrapes, and a
// Save all run against a live pipeline, then the result is compared
// byte-for-byte against sequential ingest of the same multiset.
func TestPipelineRaceStress(t *testing.T) {
	edges := randomEdges(250, 8000, 30307)
	cfg := Config{K: 16, Seed: 30313}
	s, err := NewSharded(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !s.StartPipeline(3, 4) {
		t.Fatal("StartPipeline refused")
	}
	const producers = 4
	per := len(edges) / producers
	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		lo, hi := w*per, (w+1)*per
		if w == producers-1 {
			hi = len(edges)
		}
		wg.Add(1)
		go func(chunk []stream.Edge, async bool) {
			defer wg.Done()
			for lo := 0; lo < len(chunk); lo += 96 {
				hi := lo + 96
				if hi > len(chunk) {
					hi = len(chunk)
				}
				if async {
					s.ProcessEdgesAsync(chunk[lo:hi])
				} else {
					s.IngestBatch(chunk[lo:hi], nil)
				}
			}
		}(edges[lo:hi], w%2 == 1)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 400; i++ {
			est(s, QueryJaccard, uint64(i%250), uint64((i*7)%250))
			s.Degree(uint64(i % 250))
			s.NumVertices()
			s.MemoryBytes()
			s.PipelineStats()
			if i == 200 {
				var buf bytes.Buffer
				if err := s.Save(&buf); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	wg.Wait()
	<-done
	s.FlushIngest()
	s.StopPipeline()

	ref, err := NewSharded(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	ref.IngestBatch(edges, nil)
	if !bytes.Equal(pipelineSaveBytes(t, s.Save), pipelineSaveBytes(t, ref.Save)) {
		t.Fatal("concurrent pipeline ingest diverged from sequential reference")
	}
}
