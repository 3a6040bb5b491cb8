package core

import (
	"bytes"
	"strings"
	"testing"

	"linkpred/internal/rng"
)

func TestShardedSaveLoadRoundTrip(t *testing.T) {
	edges := randomEdges(200, 5000, 601)
	s, err := NewSharded(Config{K: 64, Seed: 607, Degrees: DegreeDistinctKMV}, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		s.ProcessEdge(e)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSharded(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumShards() != 5 {
		t.Errorf("NumShards = %d, want 5", loaded.NumShards())
	}
	if loaded.NumEdges() != s.NumEdges() || loaded.NumVertices() != s.NumVertices() {
		t.Errorf("counts differ: %d/%d vs %d/%d",
			loaded.NumEdges(), loaded.NumVertices(), s.NumEdges(), s.NumVertices())
	}
	x := rng.NewXoshiro256(613)
	for i := 0; i < 300; i++ {
		u, v := uint64(x.Intn(200)), uint64(x.Intn(200))
		if est(s, QueryJaccard, u, v) != est(loaded, QueryJaccard, u, v) ||
			est(s, QueryCommonNeighbors, u, v) != est(loaded, QueryCommonNeighbors, u, v) ||
			est(s, QueryAdamicAdar, u, v) != est(loaded, QueryAdamicAdar, u, v) ||
			s.Degree(u) != loaded.Degree(u) {
			t.Fatalf("loaded sharded store diverges at (%d,%d)", u, v)
		}
	}
	// The loaded store must accept further ingest and stay consistent
	// with the original fed the same continuation.
	more := randomEdges(200, 500, 617)
	for _, e := range more {
		s.ProcessEdge(e)
		loaded.ProcessEdge(e)
	}
	for i := 0; i < 100; i++ {
		u, v := uint64(x.Intn(200)), uint64(x.Intn(200))
		if est(s, QueryJaccard, u, v) != est(loaded, QueryJaccard, u, v) {
			t.Fatalf("post-resume divergence at (%d,%d)", u, v)
		}
	}
}

func TestLoadShardedErrors(t *testing.T) {
	if _, err := LoadSharded(strings.NewReader("")); err == nil {
		t.Error("empty input should error")
	}
	if _, err := LoadSharded(strings.NewReader("NOPE............")); err == nil {
		t.Error("bad magic should error")
	}
	// Valid prefix, truncated shard data.
	s, _ := NewSharded(Config{K: 8, Seed: 1}, 2)
	for _, e := range randomEdges(20, 100, 619) {
		s.ProcessEdge(e)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()*2/3]
	if _, err := LoadSharded(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated input should error")
	}
	// Corrupted version.
	bad := append([]byte(nil), buf.Bytes()...)
	bad[4] = 0xee
	if _, err := LoadSharded(bytes.NewReader(bad)); err == nil {
		t.Error("bad version should error")
	}
}

func TestShardedSaveConsistencyAcrossShardBoundaries(t *testing.T) {
	// The regression this guards: LoadSketchStore used to wrap the shared
	// reader in a fresh bufio.Reader, whose read-ahead swallowed the next
	// shard's bytes. With many small shards every boundary is exercised.
	s, _ := NewSharded(Config{K: 4, Seed: 3}, 16)
	for _, e := range randomEdges(500, 3000, 631) {
		s.ProcessEdge(e)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSharded(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumVertices() != s.NumVertices() {
		t.Errorf("vertices %d != %d after 16-shard round trip",
			loaded.NumVertices(), s.NumVertices())
	}
}
