package core

import (
	"bytes"
	"testing"

	"linkpred/internal/rng"
)

func TestDirectedSaveLoadRoundTrip(t *testing.T) {
	arcs := randomEdges(200, 5000, 401)
	cfg := Config{K: 32, Seed: 403, Degrees: DegreeDistinctKMV}
	orig, err := NewDirectedStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range arcs {
		orig.ProcessArc(a)
	}

	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	first := append([]byte(nil), buf.Bytes()...)
	loaded, err := LoadDirected(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Config() != cfg {
		t.Errorf("config round trip: %+v != %+v", loaded.Config(), cfg)
	}
	if loaded.NumArcs() != orig.NumArcs() || loaded.NumVertices() != orig.NumVertices() {
		t.Errorf("counts differ: %d/%d vs %d/%d",
			loaded.NumArcs(), loaded.NumVertices(), orig.NumArcs(), orig.NumVertices())
	}
	x := rng.NewXoshiro256(405)
	for i := 0; i < 300; i++ {
		u, v := uint64(x.Intn(200)), uint64(x.Intn(200))
		if est(orig, QueryJaccard, u, v) != est(loaded, QueryJaccard, u, v) ||
			est(orig, QueryCommonNeighbors, u, v) != est(loaded, QueryCommonNeighbors, u, v) ||
			est(orig, QueryAdamicAdar, u, v) != est(loaded, QueryAdamicAdar, u, v) ||
			orig.OutDegree(u) != loaded.OutDegree(u) ||
			orig.InDegree(u) != loaded.InDegree(u) {
			t.Fatalf("loaded directed store diverges at (%d,%d)", u, v)
		}
	}
	// Saving twice is byte-identical (vertices are written sorted).
	var again bytes.Buffer
	if err := loaded.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, again.Bytes()) {
		t.Fatal("re-save of loaded store is not byte-identical")
	}
	// The restored store keeps ingesting: same result as never stopping.
	more := randomEdges(200, 1000, 407)
	for _, a := range more {
		orig.ProcessArc(a)
		loaded.ProcessArc(a)
	}
	if est(orig, QueryJaccard, 3, 7) != est(loaded, QueryJaccard, 3, 7) {
		t.Fatal("restored store diverges after further ingest")
	}
}

func TestShardedDirectedSaveLoadRoundTrip(t *testing.T) {
	arcs := randomEdges(300, 8000, 409)
	cfg := Config{K: 16, Seed: 411}
	orig, err := NewShardedDirected(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	orig.IngestBatch(arcs, nil)

	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadShardedDirected(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumArcs() != orig.NumArcs() || loaded.NumVertices() != orig.NumVertices() {
		t.Errorf("counts differ: %d/%d vs %d/%d",
			loaded.NumArcs(), loaded.NumVertices(), orig.NumArcs(), orig.NumVertices())
	}
	if loaded.MemoryBytes() != orig.MemoryBytes() {
		t.Errorf("memory gauges not refreshed: %d vs %d", loaded.MemoryBytes(), orig.MemoryBytes())
	}
	x := rng.NewXoshiro256(413)
	for i := 0; i < 300; i++ {
		u, v := uint64(x.Intn(300)), uint64(x.Intn(300))
		if est(orig, QueryJaccard, u, v) != est(loaded, QueryJaccard, u, v) ||
			est(orig, QueryCommonNeighbors, u, v) != est(loaded, QueryCommonNeighbors, u, v) ||
			est(orig, QueryAdamicAdar, u, v) != est(loaded, QueryAdamicAdar, u, v) {
			t.Fatalf("loaded sharded directed store diverges at (%d,%d)", u, v)
		}
	}
	// Concurrent-safe after load.
	loaded.IngestBatch(randomEdges(300, 500, 415), nil)
}
