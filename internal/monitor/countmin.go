// Package monitor profiles a graph stream in constant space: how many
// distinct edges and vertices it carries, how much of it is duplicates,
// which vertices dominate, and how the degree mass is distributed. It is
// the operational companion to the sketches — before choosing K or a
// degree mode (DESIGN.md §2.4) you want to know the duplicate rate and
// the tail of the stream, and a production ingester wants those numbers
// continuously.
//
// Three classic summaries combine here: a Count–Min sketch (approximate
// per-key counts, used for degree lookups), the candidates package's
// space-saving heavy-hitter table (the top-degree vertices), and a
// k-minimum-values distinct counter (distinct edges/vertices under
// duplication).
package monitor

import (
	"fmt"

	"linkpred/internal/hashing"
)

// CountMin is a Count–Min sketch: a width×depth counter matrix where
// each key increments one counter per row (chosen by that row's hash)
// and reads back the minimum — an overestimate with error ≤ εN
// (ε ≈ e/width) with probability ≥ 1 − δ (δ ≈ exp(−depth)).
type CountMin struct {
	width, depth int
	rows         [][]uint64
	hashes       *hashing.Family
	total        uint64
}

// NewCountMin returns a Count–Min sketch with the given width (counters
// per row) and depth (rows). It returns an error if either is < 1.
func NewCountMin(width, depth int, seed uint64) (*CountMin, error) {
	if width < 1 || depth < 1 {
		return nil, fmt.Errorf("monitor: CountMin needs width, depth >= 1 (got %d, %d)", width, depth)
	}
	rows := make([][]uint64, depth)
	for i := range rows {
		rows[i] = make([]uint64, width)
	}
	return &CountMin{
		width:  width,
		depth:  depth,
		rows:   rows,
		hashes: hashing.NewFamily(hashing.KindMixed, depth, seed),
	}, nil
}

// Add increments key's count by delta.
func (c *CountMin) Add(key uint64, delta uint64) {
	for i := 0; i < c.depth; i++ {
		c.rows[i][c.hashes.Hash(i, key)%uint64(c.width)] += delta
	}
	c.total += delta
}

// Count returns the estimated count of key (never an underestimate).
func (c *CountMin) Count(key uint64) uint64 {
	min := ^uint64(0)
	for i := 0; i < c.depth; i++ {
		if v := c.rows[i][c.hashes.Hash(i, key)%uint64(c.width)]; v < min {
			min = v
		}
	}
	return min
}

// Total returns the sum of all added deltas.
func (c *CountMin) Total() uint64 { return c.total }

// MemoryBytes returns the payload size of the counter matrix.
func (c *CountMin) MemoryBytes() int { return 8 * c.width * c.depth }
