package monitor

import (
	"fmt"
	"math"
	"sort"

	"linkpred/internal/hashing"
)

// KMV is a k-minimum-values distinct counter over 64-bit keys: it keeps
// the k smallest hash values seen; with m_k the k-th smallest mapped to
// (0, 1], the distinct count is estimated by (k−1)/m_k.
//
// It is a one-hash bottom-k counter over a whole stream. The core
// package's kmvDistinct is a different estimator — the k-register
// MinHash estimate over one vertex's sketch, one minimum per hash
// function — so the two are not duplicates.
type KMV struct {
	k    int
	hash hashing.Mixed
	vals []uint64 // sorted ascending, at most k, distinct
}

// NewKMV returns a distinct counter keeping the k smallest hashes. It
// returns an error if k < 2 (the estimator needs k−1 ≥ 1).
func NewKMV(k int, seed uint64) (*KMV, error) {
	if k < 2 {
		return nil, fmt.Errorf("monitor: KMV needs k >= 2, got %d", k)
	}
	return &KMV{k: k, hash: hashing.NewMixed(seed), vals: make([]uint64, 0, k)}, nil
}

// Add observes one key (duplicates are free by construction).
func (v *KMV) Add(key uint64) {
	h := v.hash.Hash(key)
	if len(v.vals) == v.k && h >= v.vals[len(v.vals)-1] {
		return
	}
	i := sort.Search(len(v.vals), func(i int) bool { return v.vals[i] >= h })
	if i < len(v.vals) && v.vals[i] == h {
		return // already present
	}
	v.vals = append(v.vals, 0)
	copy(v.vals[i+1:], v.vals[i:])
	v.vals[i] = h
	if len(v.vals) > v.k {
		v.vals = v.vals[:v.k]
	}
}

// Estimate returns the estimated number of distinct keys observed. While
// fewer than k distinct hashes have been seen the count is exact.
func (v *KMV) Estimate() float64 {
	if len(v.vals) < v.k {
		return float64(len(v.vals))
	}
	mk := hashing.Float01(v.vals[len(v.vals)-1])
	if mk <= 0 {
		return float64(v.k)
	}
	est := float64(v.k-1) / mk
	return math.Max(est, float64(v.k))
}

// MemoryBytes returns the payload size of the counter.
func (v *KMV) MemoryBytes() int { return 8 * v.k }
