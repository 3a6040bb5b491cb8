package core

import (
	"fmt"
	"sort"

	"linkpred/internal/rng"
)

// LSH similarity index over the MinHash registers.
//
// The estimators answer "how similar are these two vertices?"; the LSH
// index answers "which vertices are similar to this one?" over the
// *entire* vertex set, without scoring all n candidates. It is the
// classic MinHash banding construction: the K registers are split into
// b bands of r rows (b·r ≤ K); vertices agreeing on every register of
// some band land in the same bucket. A pair with Jaccard J collides in
// at least one band with probability 1 − (1 − J^r)^b — an S-curve with
// threshold ≈ (1/b)^(1/r) — so near-duplicate neighborhoods are found
// in O(b) bucket lookups.
//
// The index is a *snapshot*: it indexes the sketches as they are at
// Build time. As the stream evolves, registers change and the index
// goes stale; rebuild it periodically (Build is O(n·b)). This is the
// honest design — register mutations cannot be tracked incrementally
// without touching b buckets per edge.
type LSHIndex struct {
	store *SketchStore
	bands int
	rows  int
	salt  uint64
	// buckets[i] maps a band-i key to the vertices in that bucket.
	buckets []map[uint64][]uint64
}

// BuildLSHIndex builds a banding index over the store's current
// sketches. It returns an error if bands < 1, rows < 1, or
// bands·rows > Config.K.
func (s *SketchStore) BuildLSHIndex(bands, rows int) (*LSHIndex, error) {
	if bands < 1 || rows < 1 {
		return nil, fmt.Errorf("core: LSH needs bands, rows >= 1 (got %d, %d)", bands, rows)
	}
	// Banding reads the first bands·rows registers of every vertex, so on
	// a tiered store the budget is the smallest tier's width — the prefix
	// every vertex carries regardless of promotion (min-k property).
	maxSpan := s.cfg.K
	if s.tiers != nil {
		maxSpan = s.tiers[0].K
	}
	if bands*rows > maxSpan {
		return nil, fmt.Errorf("core: LSH bands*rows = %d exceeds the smallest per-vertex register span %d", bands*rows, maxSpan)
	}
	idx := &LSHIndex{
		store:   s,
		bands:   bands,
		rows:    rows,
		salt:    s.cfg.Seed ^ 0x15aac1de5a17ed00,
		buckets: make([]map[uint64][]uint64, bands),
	}
	for i := range idx.buckets {
		idx.buckets[i] = make(map[uint64][]uint64)
	}
	for u, st := range s.vertices {
		vals := s.bank.regs(st.slot)
		for b := 0; b < bands; b++ {
			key := idx.bandKey(vals, b)
			idx.buckets[b][key] = append(idx.buckets[b][key], u)
		}
	}
	// Deterministic bucket order for reproducible Query output.
	for b := range idx.buckets {
		for _, members := range idx.buckets[b] {
			sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		}
	}
	return idx, nil
}

// bandKey hashes band b's registers (rows consecutive register values)
// into one bucket key.
func (x *LSHIndex) bandKey(vals []uint64, b int) uint64 {
	h := x.salt + uint64(b)*0x9e3779b97f4a7c15
	for i := b * x.rows; i < (b+1)*x.rows; i++ {
		h = rng.Mix64(h ^ vals[i])
	}
	return h
}

// Bands returns the band count; Rows the rows per band.
func (x *LSHIndex) Bands() int { return x.bands }

// Rows returns the rows per band.
func (x *LSHIndex) Rows() int { return x.rows }

// Candidates returns the vertices sharing at least one band bucket with
// u, excluding u itself, sorted ascending. It returns nil for unknown
// vertices. This is the raw LSH candidate set — callers filter it with
// the estimators (or use Similar, which does so).
func (x *LSHIndex) Candidates(u uint64) []uint64 {
	st := x.store.vertices[u]
	if st == nil {
		return nil
	}
	vals := x.store.bank.regs(st.slot)
	seen := make(map[uint64]struct{})
	for b := 0; b < x.bands; b++ {
		for _, v := range x.buckets[b][x.bandKey(vals, b)] {
			if v != u {
				seen[v] = struct{}{}
			}
		}
	}
	out := make([]uint64, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SimilarVertex pairs a vertex with its estimated Jaccard similarity to
// the query vertex.
type SimilarVertex struct {
	V       uint64
	Jaccard float64
}

// Similar returns the vertices whose estimated neighborhood Jaccard with
// u is at least minJaccard, found via the band buckets and verified with
// the full sketches, ordered by descending similarity (ties toward
// smaller ids). limit <= 0 means no limit.
//
// Recall follows the banding S-curve: pairs with J well above
// (1/bands)^(1/rows) are found with high probability; pairs near the
// threshold may be missed. E19 measures the curve.
func (x *LSHIndex) Similar(u uint64, minJaccard float64, limit int) []SimilarVertex {
	var out []SimilarVertex
	for _, v := range x.Candidates(u) {
		if j, _ := x.store.Estimate(QueryJaccard, u, v); j >= minJaccard {
			out = append(out, SimilarVertex{V: v, Jaccard: j})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Jaccard != out[j].Jaccard {
			return out[i].Jaccard > out[j].Jaccard
		}
		return out[i].V < out[j].V
	})
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// MemoryBytes returns the payload memory of the bucket tables.
func (x *LSHIndex) MemoryBytes() int {
	const entryOverhead = 48
	total := 0
	for _, b := range x.buckets {
		total += entryOverhead * len(b)
		for _, members := range b {
			total += 8 * len(members)
		}
	}
	return total
}
