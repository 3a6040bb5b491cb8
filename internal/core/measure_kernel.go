package core

import (
	"fmt"
	"math"
	"sync"
)

// The measure kernel: every sequential estimator and every batch path,
// on every store, is the same three-step computation — (1) a store-
// specific pair snapshot (register matches, the two endpoint degrees,
// and optionally the matched argmin ids), (2) a midpoint weight sum for
// the weighted measures, (3) a closed-form score from those numbers.
// Steps 2 and 3 live here, once; each store contributes only step 1
// (pairQuery) plus its notion of a midpoint's degree (midpointDegree).
//
// Adding a measure therefore means: a QueryMeasure constant plus cases
// in valid()/weighted()/String(), a weight in midpointWeight (if it is
// a weighted matched-register measure), and a formula arm in
// scoreFromSnapshot — all in this file — plus the public Measure
// mapping in the root package's linkpred.go. Two files. No store, no
// batch path, no facade is touched; every mode picks the new measure
// up through Estimate/ScoreBatch automatically.

// QueryMeasure identifies a ranking measure for the query engine. It
// mirrors the public linkpred.Measure set; the facades map between the
// two.
type QueryMeasure int

const (
	QueryJaccard QueryMeasure = iota
	QueryCommonNeighbors
	QueryAdamicAdar
	QueryResourceAllocation
	QueryPreferentialAttachment
	QueryCosine
)

// String returns the measure's conventional name.
func (m QueryMeasure) String() string {
	switch m {
	case QueryJaccard:
		return "jaccard"
	case QueryCommonNeighbors:
		return "common-neighbors"
	case QueryAdamicAdar:
		return "adamic-adar"
	case QueryResourceAllocation:
		return "resource-allocation"
	case QueryPreferentialAttachment:
		return "preferential-attachment"
	case QueryCosine:
		return "cosine"
	default:
		return fmt.Sprintf("QueryMeasure(%d)", int(m))
	}
}

func (m QueryMeasure) valid() bool {
	return m >= QueryJaccard && m <= QueryCosine
}

// weighted reports whether the measure sums per-common-neighbor weights
// (and therefore needs the matched argmin ids and, on the batch paths,
// the precomputed per-register weights of stage 2).
func (m QueryMeasure) weighted() bool {
	return m == QueryAdamicAdar || m == QueryResourceAllocation
}

// pairScorer is the per-store query kernel: one pair snapshot plus the
// store's midpoint-degree notion. Implemented by all five stores;
// estimatePair turns it into the full six-measure estimator set.
//
// pairQuery returns the number of matching registers between the two
// relevant sketches (out-sketch of u vs in-sketch of v on directed
// stores, merged generations on the windowed store), the effective
// register count the comparison ran over — min(k_u, k_v), which is
// Config.K everywhere on uniform stores but varies per pair on tiered
// ones (the min-k prefix property makes the common prefix a valid
// min-k sketch pair) — the two endpoint degrees under the store's
// degree mode (d_out(u)/d_in(v) on directed stores), and known=false
// if either endpoint has never been seen.
// When collect is set, the argmin ids of matching registers are
// appended to idBuf (returned as ids, so callers can reuse a buffer's
// capacity; the buffer is returned even when known is false).
// Thread-safe stores take their locks inside pairQuery and release
// them before returning, so midpointDegree calls never nest inside
// the pair's critical section.
type pairScorer interface {
	pairQuery(u, v uint64, collect bool, idBuf []uint64) (matches, effK int, du, dv float64, known bool, ids []uint64)
	midpointDegree(w uint64) float64
	Config() Config
}

// matchedIDPool recycles the matched-argmin buffers of the weighted
// estimators so the query hot path is allocation-free in steady state.
var matchedIDPool = sync.Pool{New: func() any { return new([]uint64) }}

// midpointWeight is the per-common-neighbor weight of the weighted
// matched-register measures, under the store's degree estimate for the
// midpoint. The degree is clamped at 2 so the weight stays finite (a
// true common neighbor always has degree >= 2; the clamp only engages
// for degree-1 estimates, which can never belong to a well-formed
// query).
func midpointWeight(m QueryMeasure, d float64) float64 {
	if d < 2 {
		d = 2
	}
	if m == QueryAdamicAdar {
		return 1 / math.Log(d)
	}
	return 1 / d
}

// scoreFromSnapshot turns a pair snapshot into the final score for any
// measure: kf is the register count the comparison ran over (K on
// uniform stores, min(k_u, k_v) on tiered ones), matches the number of
// matching registers, weightSum the midpoint weight sum (ignored by
// unweighted measures), du/dv the endpoint degrees. This is the single
// place the measure formulas live; the sequential estimators and all
// four batch paths end here, which is what makes them bit-identical to
// each other.
//
// The formulas, per measure:
//
//   - Jaccard: the fraction of registers on which the two sketches
//     agree, unbiased with Var = J(1−J)/K (theory.go has the (ε, δ)
//     bound).
//   - Common neighbors: Ĵ combined with the degree counters through the
//     identity |A∩B| = J/(1+J) · (|A| + |B|).
//   - Adamic–Adar and resource allocation (matched-register
//     estimators): an agreeing register holds, by the MinHash argmin
//     property, a uniformly random member of N(u)∩N(v), so averaging the
//     weight (1/ln d(w), or 1/d(w)) of the matched members estimates the
//     mean weight over the intersection, and ĈN times that mean
//     estimates the sum. Weights use the store's live degree estimates,
//     clamped at 2 (a true common neighbor has degree ≥ 2).
//   - Preferential attachment: d(u)·d(v), exact in DegreeArrivals mode
//     on duplicate-free streams.
//   - Cosine: ĈN / sqrt(d(u)·d(v)); 0 when either degree is 0.
func scoreFromSnapshot(m QueryMeasure, kf float64, matches int, weightSum, du, dv float64) float64 {
	switch m {
	case QueryJaccard:
		return float64(matches) / kf
	case QueryPreferentialAttachment:
		return du * dv
	}
	j := float64(matches) / kf
	cn := j / (1 + j) * (du + dv)
	switch m {
	case QueryCommonNeighbors:
		return cn
	case QueryCosine:
		if du == 0 || dv == 0 {
			return 0
		}
		return cn / math.Sqrt(du*dv)
	default: // QueryAdamicAdar, QueryResourceAllocation
		if matches == 0 {
			return 0
		}
		return cn * weightSum / float64(matches)
	}
}

// estimatePair is the shared sequential estimator: every store's
// Estimate method delegates here.
// Scores are 0 for pairs involving unknown vertices (an unseen vertex
// has an empty neighborhood, for which every measure is 0).
func estimatePair(s pairScorer, m QueryMeasure, u, v uint64) (float64, error) {
	if !m.valid() {
		return 0, fmt.Errorf("core: unknown query measure %v", m)
	}
	if !m.weighted() {
		matches, effK, du, dv, known, _ := s.pairQuery(u, v, false, nil)
		if !known {
			return 0, nil
		}
		return scoreFromSnapshot(m, float64(effK), matches, 0, du, dv), nil
	}
	bufp := matchedIDPool.Get().(*[]uint64)
	matches, effK, du, dv, known, ids := s.pairQuery(u, v, true, (*bufp)[:0])
	// Midpoint degrees are read after pairQuery has released any pair
	// locks (one shard lock at a time on the sharded stores — see the
	// Sharded type comment for the discipline).
	var weightSum float64
	for _, w := range ids {
		weightSum += midpointWeight(m, s.midpointDegree(w))
	}
	*bufp = ids[:0] // keep any growth for the next query
	matchedIDPool.Put(bufp)
	if !known {
		return 0, nil
	}
	return scoreFromSnapshot(m, float64(effK), matches, weightSum, du, dv), nil
}

// fillRegWeights precomputes the per-register midpoint weights for a
// batch under a weighted measure: regWeight[i] is the weight of the
// pinned source register i's argmin id, or 0 for empty registers. The
// ≤ K degree lookups here replace one lookup per matched register per
// candidate on the sequential path — the big win of the batch paths.
func fillRegWeights(m QueryMeasure, vals, ids []uint64, regWeight []float64, s pairScorer) {
	for i, val := range vals {
		if val == emptyRegister {
			regWeight[i] = 0
			continue
		}
		regWeight[i] = midpointWeight(m, s.midpointDegree(ids[i]))
	}
}

// matchRegisters counts matching non-empty registers between a pinned
// source register vector and one candidate's, accumulating the
// precomputed per-register weights for weighted measures. The shared
// inner loop of all four batch paths, dispatching to the branch-free
// kernels of kernel.go (vectorized on amd64 for the unweighted count).
func matchRegisters(m QueryMeasure, src, cand []uint64, regWeight []float64) (matches int, weightSum float64) {
	if m.weighted() {
		return matchWeightedRegs(src, cand, regWeight)
	}
	return matchCount(src, cand), 0
}
