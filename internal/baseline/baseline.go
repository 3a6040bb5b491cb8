// Package baseline provides the comparison systems the sketch predictor
// is evaluated against:
//
//   - Exact: keeps the entire graph in memory and answers queries
//     exactly. It is the "snapshot" approach the paper argues is
//     unavailable in the streaming setting — unbounded memory, but the
//     accuracy ceiling every sketch is measured against.
//   - Reservoir: keeps a uniform edge reservoir of fixed capacity and
//     scales subgraph measurements back up by the sampling rate — the
//     natural bounded-memory straw-man. It matches the sketches' memory
//     budget but, as experiments E5/E6 show, not their accuracy.
//
// All systems (including *core.SketchStore*) satisfy the System
// interface, so the evaluation harness treats them uniformly.
package baseline

import (
	"fmt"
	"math"

	"linkpred/internal/core"
	"linkpred/internal/exact"
	"linkpred/internal/graph"
	"linkpred/internal/rng"
	"linkpred/internal/stream"
)

// System is a streaming link-prediction system: it consumes edges one at
// a time and answers measure queries at any point.
type System interface {
	// ProcessEdge folds one stream edge into the system's state.
	ProcessEdge(e stream.Edge)
	// Estimate estimates measure m for the pair (u, v). Every system
	// models the paper's three targets (Jaccard, common neighbors,
	// Adamic–Adar); a measure the system does not model is an error.
	Estimate(m core.QueryMeasure, u, v uint64) (float64, error)
	// MemoryBytes reports the system's current payload memory.
	MemoryBytes() int
}

// errUnmodeled reports a measure a baseline system has no estimator for.
func errUnmodeled(system string, m core.QueryMeasure) error {
	return fmt.Errorf("baseline: %s system does not model %v", system, m)
}

// Exact is the unbounded-memory reference System: a full adjacency graph.
type Exact struct {
	g *graph.Graph
}

// NewExact returns an empty exact system.
func NewExact() *Exact { return &Exact{g: graph.New()} }

// ProcessEdge implements System.
func (e *Exact) ProcessEdge(ed stream.Edge) { e.g.AddEdge(ed.U, ed.V) }

// Estimate implements System, exactly, for the three target measures.
func (e *Exact) Estimate(m core.QueryMeasure, u, v uint64) (float64, error) {
	switch m {
	case core.QueryJaccard:
		return exact.Jaccard(e.g, u, v), nil
	case core.QueryCommonNeighbors:
		return exact.CommonNeighbors(e.g, u, v), nil
	case core.QueryAdamicAdar:
		return exact.AdamicAdar(e.g, u, v), nil
	}
	return 0, errUnmodeled("exact", m)
}

// MemoryBytes implements System.
func (e *Exact) MemoryBytes() int { return e.g.MemoryBytes() }

// Graph exposes the underlying graph for ground-truth use by the
// evaluation harness.
func (e *Exact) Graph() *graph.Graph { return e.g }

// Reservoir is the bounded-memory straw-man System: a uniform reservoir
// of at most capacity edges (Algorithm R over the deduplicated edge
// sequence), with measures computed on the sampled subgraph and scaled by
// the sampling rate.
//
// With sampling rate p = |reservoir| / |distinct edges seen|, a common
// neighbor w of (u, v) survives in the sample only if both edges (u,w)
// and (v,w) survive — probability ≈ p² — so subgraph counts are scaled by
// 1/p². Degrees scale by 1/p. The estimators are consistent but carry
// O(1/(p√CN)) noise, which is the point of the comparison.
type Reservoir struct {
	capacity int
	x        *rng.Xoshiro256
	g        *graph.Graph
	slots    []stream.Edge
	seen     int64 // distinct (canonical) edges observed
	dedup    map[[2]uint64]struct{}
}

// NewReservoir returns a reservoir System holding at most capacity edges.
// It returns an error if capacity < 1.
//
// The reservoir tracks *distinct* edges: duplicates in the stream are
// recognised via a fingerprint set. That set makes the implementation
// O(distinct edges) in memory in the worst case — strictly speaking more
// than the reservoir itself — but the measured MemoryBytes accounts for
// it, so comparisons against the sketches remain fair.
func NewReservoir(capacity int, seed uint64) (*Reservoir, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("baseline: reservoir capacity must be >= 1, got %d", capacity)
	}
	return &Reservoir{
		capacity: capacity,
		x:        rng.NewXoshiro256(seed),
		g:        graph.New(),
		dedup:    make(map[[2]uint64]struct{}),
	}, nil
}

// ProcessEdge implements System via Algorithm R.
func (r *Reservoir) ProcessEdge(e stream.Edge) {
	if e.IsSelfLoop() {
		return
	}
	c := e.Canonical()
	key := [2]uint64{c.U, c.V}
	if _, dup := r.dedup[key]; dup {
		return
	}
	r.dedup[key] = struct{}{}
	r.seen++
	if len(r.slots) < r.capacity {
		r.slots = append(r.slots, c)
		r.g.AddEdge(c.U, c.V)
		return
	}
	// Replace a random slot with probability capacity/seen.
	j := r.x.Uint64n(uint64(r.seen))
	if j >= uint64(r.capacity) {
		return
	}
	old := r.slots[j]
	r.g.RemoveEdge(old.U, old.V)
	r.slots[j] = c
	r.g.AddEdge(c.U, c.V)
}

// rate returns the current sampling probability p.
func (r *Reservoir) rate() float64 {
	if r.seen == 0 {
		return 1
	}
	p := float64(len(r.slots)) / float64(r.seen)
	if p > 1 {
		p = 1
	}
	return p
}

// Estimate implements System for the three target measures, on the
// sampled subgraph:
//
//   - common neighbors: the subgraph count scaled by 1/p²;
//   - Jaccard: ĈN / (d̂(u) + d̂(v) − ĈN) with degrees scaled by 1/p,
//     clamped to [0, 1] (scaled counts can transiently violate the set
//     identity);
//   - Adamic–Adar: Σ over sampled common neighbors of 1/ln(d̂(w)),
//     scaled by 1/p², with the sampled degree scaled by 1/p and clamped
//     at 2 so the logarithm stays positive.
func (r *Reservoir) Estimate(m core.QueryMeasure, u, v uint64) (float64, error) {
	p := r.rate()
	switch m {
	case core.QueryCommonNeighbors:
		return float64(r.g.CommonNeighbors(u, v)) / (p * p), nil
	case core.QueryJaccard:
		cn := float64(r.g.CommonNeighbors(u, v)) / (p * p)
		union := float64(r.g.Degree(u))/p + float64(r.g.Degree(v))/p - cn
		if union <= 0 {
			return 0, nil
		}
		return math.Max(0, math.Min(1, cn/union)), nil
	case core.QueryAdamicAdar:
		sum := 0.0
		for _, w := range r.g.CommonNeighborSlice(u, v) {
			d := math.Max(float64(r.g.Degree(w))/p, 2)
			sum += 1 / math.Log(d)
		}
		return sum / (p * p), nil
	}
	return 0, errUnmodeled("reservoir", m)
}

// MemoryBytes implements System: the sampled subgraph, the slot array and
// the dedup fingerprint set.
func (r *Reservoir) MemoryBytes() int {
	const slotBytes = 24   // one stream.Edge
	const fingerprint = 32 // map entry for a [2]uint64 key
	return r.g.MemoryBytes() + slotBytes*cap(r.slots) + fingerprint*len(r.dedup)
}

// SampledEdges returns the current number of edges in the reservoir.
func (r *Reservoir) SampledEdges() int { return len(r.slots) }

// DistinctSeen returns the number of distinct edges observed so far.
func (r *Reservoir) DistinctSeen() int64 { return r.seen }
