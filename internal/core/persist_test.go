package core

import (
	"bytes"
	"strings"
	"testing"

	"linkpred/internal/rng"
	"linkpred/internal/stream"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	edges := randomEdges(200, 5000, 307)
	cfg := Config{K: 64, Seed: 311, EnableBiased: true, Degrees: DegreeDistinctKMV}
	_, orig := buildBoth(t, cfg, edges)

	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSketchStore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Config() != cfg {
		t.Errorf("config round trip: %+v != %+v", loaded.Config(), cfg)
	}
	if loaded.NumEdges() != orig.NumEdges() || loaded.NumVertices() != orig.NumVertices() {
		t.Errorf("counts differ: %d/%d vs %d/%d",
			loaded.NumEdges(), loaded.NumVertices(), orig.NumEdges(), orig.NumVertices())
	}
	x := rng.NewXoshiro256(313)
	for i := 0; i < 300; i++ {
		u, v := uint64(x.Intn(200)), uint64(x.Intn(200))
		if est(orig, QueryJaccard, u, v) != est(loaded, QueryJaccard, u, v) ||
			est(orig, QueryCommonNeighbors, u, v) != est(loaded, QueryCommonNeighbors, u, v) ||
			est(orig, QueryAdamicAdar, u, v) != est(loaded, QueryAdamicAdar, u, v) ||
			orig.EstimateAdamicAdarBiased(u, v) != loaded.EstimateAdamicAdarBiased(u, v) ||
			orig.Degree(u) != loaded.Degree(u) {
			t.Fatalf("loaded store diverges at (%d,%d)", u, v)
		}
	}
}

func TestSaveLoadResumeStream(t *testing.T) {
	// Save mid-stream, resume on the loaded copy: results must equal a
	// store that consumed the whole stream without interruption.
	edges := randomEdges(100, 4000, 317)
	cfg := Config{K: 64, Seed: 331}
	full, err := NewSketchStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	half, _ := NewSketchStore(cfg)
	for i, e := range edges {
		full.ProcessEdge(e)
		if i < len(edges)/2 {
			half.ProcessEdge(e)
		}
	}
	var buf bytes.Buffer
	if err := half.Save(&buf); err != nil {
		t.Fatal(err)
	}
	resumed, err := LoadSketchStore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges[len(edges)/2:] {
		resumed.ProcessEdge(e)
	}
	x := rng.NewXoshiro256(337)
	for i := 0; i < 200; i++ {
		u, v := uint64(x.Intn(100)), uint64(x.Intn(100))
		if est(full, QueryJaccard, u, v) != est(resumed, QueryJaccard, u, v) ||
			est(full, QueryAdamicAdar, u, v) != est(resumed, QueryAdamicAdar, u, v) {
			t.Fatalf("resumed store diverges from uninterrupted store at (%d,%d)", u, v)
		}
	}
}

func TestSaveDeterministicBytes(t *testing.T) {
	edges := randomEdges(100, 2000, 347)
	_, s := buildBoth(t, Config{K: 32, Seed: 349}, edges)
	var a, b bytes.Buffer
	if err := s.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two saves of the same store differ byte-wise")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := LoadSketchStore(strings.NewReader("")); err == nil {
		t.Error("empty input should error")
	}
	if _, err := LoadSketchStore(strings.NewReader("NOPE")); err == nil {
		t.Error("short bad magic should error")
	}
	if _, err := LoadSketchStore(strings.NewReader("NOPExxxxxxxxxxxxxxxxxxxxxxx")); err == nil {
		t.Error("bad magic should error")
	}
	// Truncated valid prefix.
	_, s := buildBoth(t, Config{K: 16, Seed: 1}, randomEdges(20, 100, 353))
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := LoadSketchStore(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated input should error")
	}
	// Corrupted version field.
	bad := append([]byte(nil), buf.Bytes()...)
	bad[4] = 99
	if _, err := LoadSketchStore(bytes.NewReader(bad)); err == nil {
		t.Error("unsupported version should error")
	}
}

func TestSaveEmptyStore(t *testing.T) {
	s, _ := NewSketchStore(Config{K: 8, Seed: 1})
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSketchStore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumVertices() != 0 || loaded.NumEdges() != 0 {
		t.Error("empty store round trip not empty")
	}
	// Loaded empty store must still be usable.
	loaded.ProcessEdge(stream.Edge{U: 1, V: 2})
	if !loaded.Knows(1) {
		t.Error("loaded store cannot ingest")
	}
}
