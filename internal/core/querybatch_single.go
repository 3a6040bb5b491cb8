package core

import (
	"fmt"
	"sync"
)

// Batched query paths for the single-writer stores (SketchStore,
// Windowed; DirectedStore's ScoreBatch, at the end of this file, is a
// per-pair loop). There are no locks to amortize here, but the other two
// batch wins carry over: the weighted measures' per-register weights are
// precomputed once per batch (≤ K degree lookups instead of one per
// matched register per pair — for Windowed each such lookup is an
// O(gens·K) re-merge, so this dominates), and scoring fans out across
// GOMAXPROCS-bounded workers (queries are read-only and may run
// concurrently; see the SketchStore type comment).

// ScoreBatch scores every candidate against u under measure m, writing
// scores into out (grown as needed) aligned with candidates. All six
// measures are supported; scores are bit-identical to the corresponding
// per-pair estimators. Like the estimator methods, it must not run
// concurrently with ProcessEdge. done is polled once, before scoring
// starts.
func (s *SketchStore) ScoreBatch(m QueryMeasure, u uint64, candidates []uint64, out []float64, done <-chan struct{}) ([]float64, error) {
	if !m.valid() {
		return nil, fmt.Errorf("core: unknown query measure %v", m)
	}
	out = grow(out, len(candidates))
	if len(candidates) == 0 {
		return out, nil
	}
	if canceled(done) {
		return out, ErrCanceled
	}
	su := s.vertices[u]
	if su == nil {
		clear(out)
		return out, nil
	}
	srcDeg := s.degree(su)
	sc := queryPool.Get().(*queryScratch)
	srcVals, srcIDs := s.registers(su)
	k := len(srcVals) // the source's span: Config.K, or its tier size

	if m.weighted() {
		sc.regWeight = grow(sc.regWeight, k)
		fillRegWeights(m, srcVals, srcIDs, sc.regWeight, s)
	}

	parallelRange(len(candidates), minScoreChunk, func(lo, hi int) {
		for ci := lo; ci < hi; ci++ {
			sv := s.vertices[candidates[ci]]
			if sv == nil {
				out[ci] = 0
				continue
			}
			var dv float64
			if m != QueryJaccard {
				dv = s.degree(sv)
			}
			if m == QueryPreferentialAttachment {
				// No register scan needed: the score is the degree product.
				out[ci] = srcDeg * dv
				continue
			}
			// Per-pair effective k = min(src span, candidate span); the
			// kernels already compare over the shared prefix.
			candRegs := s.bank.regs(sv.slot)
			n := k
			if len(candRegs) < n {
				n = len(candRegs)
			}
			matches, weightSum := matchRegisters(m, srcVals, candRegs, sc.regWeight)
			out[ci] = scoreFromSnapshot(m, float64(n), matches, weightSum, srcDeg, dv)
		}
	})
	queryPool.Put(sc)
	return out, nil
}

// mergedInto is the allocation-free variant of merged for callers that
// need only the union register values: vals (length K) receives the
// per-register minimum across live generations. eff is the valid span —
// the smallest contributing generation's register count, K on uniform
// stores (see merged for why the union shrinks on tiered ones). ok is
// false if u appears in no generation.
func (w *Windowed) mergedInto(u uint64, vals []uint64) (eff int, arrivals int64, ok bool) {
	for i := range vals {
		vals[i] = emptyRegister
	}
	eff = len(vals)
	for _, g := range w.gens {
		st := g.vertices[u]
		if st == nil {
			continue
		}
		ok = true
		arrivals += st.arrivals
		gv := g.bank.regs(st.slot)
		if len(gv) < eff {
			eff = len(gv)
		}
		for i, v := range gv {
			if v < vals[i] {
				vals[i] = v
			}
		}
	}
	return eff, arrivals, ok
}

// ScoreBatch scores every candidate against u over the current window,
// writing scores into out aligned with candidates. All six measures are
// supported; scores are bit-identical to the corresponding per-pair
// windowed estimators.
//
// This is the windowed path's biggest query win: the sequential
// estimators re-merge the SOURCE's generations for every candidate, and
// the windowed weighted measures re-merge every matched midpoint per
// pair (O(gens·K) each). The batch path merges the source once,
// precomputes the ≤ K midpoint weights once, and merges each candidate
// exactly once, on GOMAXPROCS-bounded workers. Must not run concurrently
// with ProcessEdge. done is polled once, before scoring starts.
func (w *Windowed) ScoreBatch(m QueryMeasure, u uint64, candidates []uint64, out []float64, done <-chan struct{}) ([]float64, error) {
	if !m.valid() {
		return nil, fmt.Errorf("core: unknown query measure %v", m)
	}
	out = grow(out, len(candidates))
	if len(candidates) == 0 {
		return out, nil
	}
	if canceled(done) {
		return out, ErrCanceled
	}
	uv, uids, uarr, okU := w.merged(u)
	if !okU {
		clear(out)
		return out, nil
	}
	sc := queryPool.Get().(*queryScratch)
	srcK := len(uv) // the source's merged span (≤ K on tiered stores)
	var du float64
	if m != QueryJaccard {
		du = kmvDistinct(uv, uarr)
	}
	if m.weighted() {
		sc.regWeight = grow(sc.regWeight, srcK)
		fillRegWeights(m, uv, uids, sc.regWeight, w)
	}

	parallelRange(len(candidates), minScoreChunk, func(lo, hi int) {
		// Per-chunk merge buffer from the shared scratch pool: chunks run
		// on distinct workers, so each gets its own.
		bufp := mergeBufPool.Get().(*[]uint64)
		vals := grow(*bufp, w.cfg.K)
		for ci := lo; ci < hi; ci++ {
			eff, varr, okV := w.mergedInto(candidates[ci], vals)
			if !okV {
				out[ci] = 0
				continue
			}
			cand := vals[:eff]
			if m == QueryPreferentialAttachment {
				// No register scan needed: the score is the degree product.
				out[ci] = du * kmvDistinct(cand, varr)
				continue
			}
			// Per-pair effective k = min of the two merged spans.
			n := srcK
			if eff < n {
				n = eff
			}
			matches, weightSum := matchRegisters(m, uv, cand, sc.regWeight)
			var dv float64
			if m != QueryJaccard {
				dv = kmvDistinct(cand, varr)
			}
			out[ci] = scoreFromSnapshot(m, float64(n), matches, weightSum, du, dv)
		}
		*bufp = vals
		mergeBufPool.Put(bufp)
	})
	queryPool.Put(sc)
	return out, nil
}

// ScoreBatch scores every candidate arc u → candidate under measure m,
// writing scores into out aligned with candidates. The single-writer
// directed store has no batch kernel: it scores pair by pair through
// Estimate, so scores are trivially bit-identical to it. done is polled
// once, before scoring starts. Must not run concurrently with
// ProcessArc.
func (s *DirectedStore) ScoreBatch(m QueryMeasure, u uint64, candidates []uint64, out []float64, done <-chan struct{}) ([]float64, error) {
	if !m.valid() {
		return nil, fmt.Errorf("core: unknown query measure %v", m)
	}
	out = grow(out, len(candidates))
	if len(candidates) == 0 {
		return out, nil
	}
	if canceled(done) {
		return out, ErrCanceled
	}
	for i, v := range candidates {
		out[i], _ = estimatePair(s, m, u, v) // m is valid: no error
	}
	return out, nil
}

// mergeBufPool recycles the windowed per-chunk merge buffers so a
// steady-state serving tier's ScoreBatch stays allocation-free on the
// windowed store too.
var mergeBufPool = sync.Pool{New: func() any { return new([]uint64) }}
