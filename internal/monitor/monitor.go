package monitor

import (
	"fmt"

	"linkpred/internal/candidates"
	"linkpred/internal/rng"
	"linkpred/internal/stream"
)

// StreamMonitor profiles a graph stream in constant space, combining the
// three summaries: distinct vertices and edges (KMV), approximate vertex
// degrees (Count–Min), and the top-degree vertices (space-saving).
type StreamMonitor struct {
	edges     int64
	selfLoops int64

	vertices *KMV
	edgeSet  *KMV
	degrees  *CountMin
	hitters  *candidates.SpaceSaving
}

// Config parameterises a StreamMonitor. Zero values select defaults.
type Config struct {
	// KMVSize is the size of the distinct counters (default 1024;
	// relative error ≈ 1/√k ≈ 3%).
	KMVSize int
	// CountMinWidth and CountMinDepth size the degree sketch (defaults
	// 16384 × 4).
	CountMinWidth, CountMinDepth int
	// HeavyHitters is the number of tracked top-degree vertices
	// (default 64).
	HeavyHitters int
	// Seed drives the hash functions.
	Seed uint64
}

// New returns an empty StreamMonitor.
func New(cfg Config) (*StreamMonitor, error) {
	if cfg.KMVSize == 0 {
		cfg.KMVSize = 1024
	}
	if cfg.CountMinWidth == 0 {
		cfg.CountMinWidth = 16384
	}
	if cfg.CountMinDepth == 0 {
		cfg.CountMinDepth = 4
	}
	if cfg.HeavyHitters == 0 {
		cfg.HeavyHitters = 64
	}
	sm := rng.NewSplitMix64(cfg.Seed)
	vertices, err := NewKMV(cfg.KMVSize, sm.Uint64())
	if err != nil {
		return nil, err
	}
	edgeSet, err := NewKMV(cfg.KMVSize, sm.Uint64())
	if err != nil {
		return nil, err
	}
	degrees, err := NewCountMin(cfg.CountMinWidth, cfg.CountMinDepth, sm.Uint64())
	if err != nil {
		return nil, err
	}
	hitters, err := candidates.NewSpaceSaving(cfg.HeavyHitters)
	if err != nil {
		return nil, err
	}
	return &StreamMonitor{
		vertices: vertices,
		edgeSet:  edgeSet,
		degrees:  degrees,
		hitters:  hitters,
	}, nil
}

// ProcessEdge folds one stream edge into the profile.
func (m *StreamMonitor) ProcessEdge(e stream.Edge) {
	if e.IsSelfLoop() {
		m.selfLoops++
		return
	}
	m.edges++
	c := e.Canonical()
	// Edge fingerprint: mix the canonical pair into one key.
	key := rng.Mix64(c.U)*0x9e3779b97f4a7c15 + rng.Mix64(c.V)
	m.edgeSet.Add(key)
	m.vertices.Add(e.U)
	m.vertices.Add(e.V)
	m.degrees.Add(e.U, 1)
	m.degrees.Add(e.V, 1)
	m.hitters.Observe(e.U)
	m.hitters.Observe(e.V)
}

// Degree returns the approximate arrival-degree of u (an overestimate by
// at most the Count–Min error).
func (m *StreamMonitor) Degree(u uint64) uint64 { return m.degrees.Count(u) }

// Report summarises the stream so far.
type Report struct {
	// Edges is the number of non-self-loop edges observed.
	Edges int64
	// SelfLoops counts dropped self-loops.
	SelfLoops int64
	// DistinctEdges estimates the number of distinct undirected edges.
	DistinctEdges float64
	// DistinctVertices estimates the number of distinct vertices.
	DistinctVertices float64
	// DuplicateRate estimates the fraction of arrivals that repeat an
	// earlier edge, in [0, 1].
	DuplicateRate float64
	// MeanDegree estimates 2·DistinctEdges / DistinctVertices.
	MeanDegree float64
	// TopVertices are the highest-arrival-degree vertices, count-
	// descending with ties toward smaller ids.
	TopVertices []candidates.HeavyHitter
}

// Report returns the current profile. topK selects how many heavy
// hitters to include (every tracked vertex when topK <= 0).
func (m *StreamMonitor) Report(topK int) Report {
	r := Report{
		Edges:            m.edges,
		SelfLoops:        m.selfLoops,
		DistinctEdges:    m.edgeSet.Estimate(),
		DistinctVertices: m.vertices.Estimate(),
		TopVertices:      m.hitters.Top(topK),
	}
	if m.edges > 0 {
		dup := 1 - r.DistinctEdges/float64(m.edges)
		if dup < 0 {
			dup = 0
		}
		r.DuplicateRate = dup
	}
	if r.DistinctVertices > 0 {
		r.MeanDegree = 2 * r.DistinctEdges / r.DistinctVertices
	}
	return r
}

// MemoryBytes returns the total payload memory of the profile.
func (m *StreamMonitor) MemoryBytes() int {
	return m.vertices.MemoryBytes() + m.edgeSet.MemoryBytes() +
		m.degrees.MemoryBytes() + m.hitters.MemoryBytes()
}

// String renders a compact one-line summary.
func (r Report) String() string {
	return fmt.Sprintf("edges=%d distinct=%.0f vertices=%.0f dup=%.1f%% mean_deg=%.1f self_loops=%d",
		r.Edges, r.DistinctEdges, r.DistinctVertices, 100*r.DuplicateRate, r.MeanDegree, r.SelfLoops)
}
