package core

import (
	"fmt"

	"linkpred/internal/hashing"
	"linkpred/internal/stream"
)

// DirectedStore is the directed-stream variant of the sketch store:
// each vertex keeps *two* MinHash sketches — one of its out-neighborhood
// N_out(u) and one of its in-neighborhood N_in(u) — plus the two degree
// counters. An arc u → v updates u's out-sketch with v and v's in-sketch
// with u: still O(K) per arc and O(K) words per vertex (2× the
// undirected store).
//
// Queries score a candidate arc u → v against the directed common
// neighborhood {w : u → w → v} = N_out(u) ∩ N_in(v): register matches
// between u's out-sketch and v's in-sketch estimate the Jaccard of those
// two sets (the MinHash argument is direction-agnostic — both sketches
// hash neighbor *identities* with the same family), and the
// common-neighbor and Adamic–Adar estimators follow exactly as in the
// undirected case with d(u) ↦ d_out(u), d(v) ↦ d_in(v), and midpoint
// weight 1/ln(total degree).
type DirectedStore struct {
	cfg      Config
	family   *hashing.Family
	vertices map[uint64]*dirVertexState
	// out and in are the two register banks (see regBank in sketch.go);
	// a vertex holds one slot per side. On uniform stores the two slots
	// are allocated in lockstep and stay equal; on tiered stores the
	// sides promote independently (a hub's out-neighborhood can be hot
	// while its in-side stays cold), so each side carries its own slot.
	out, in regBank
	tiers   []Tier
	arcs    int64
	hashBuf []uint64
}

type dirVertexState struct {
	outSlot, inSlot int32
	outArr, inArr   int64
	outDeg, inDeg   degMemo // per-side KMV degree memos (see degMemo)
}

// NewDirectedStore returns an empty directed store. It returns an error
// if cfg.K < 1 or cfg.EnableBiased is set (the biased sketches are an
// undirected-mode ablation).
func NewDirectedStore(cfg Config) (*DirectedStore, error) {
	if cfg.K < 1 {
		return nil, fmt.Errorf("core: Config.K must be >= 1, got %d", cfg.K)
	}
	if cfg.EnableBiased {
		return nil, fmt.Errorf("core: directed mode does not support the vertex-biased sketches")
	}
	if cfg.TrackTriangles {
		return nil, fmt.Errorf("core: directed mode does not support triangle tracking (directed triangle census needs three orientation classes; out of scope)")
	}
	if err := cfg.validateTiers(); err != nil {
		return nil, err
	}
	s := &DirectedStore{
		cfg:      cfg,
		family:   hashing.NewFamily(cfg.Hash, cfg.K, cfg.Seed),
		vertices: make(map[uint64]*dirVertexState),
		tiers:    cfg.activeTiers(),
		hashBuf:  make([]uint64, 0, cfg.K),
	}
	if s.tiers != nil {
		ks := make([]int, len(s.tiers))
		for i, t := range s.tiers {
			ks[i] = t.K
		}
		s.out.initTiered(ks, true)
		s.in.initTiered(ks, true)
	} else {
		s.out.init(cfg.K, true)
		s.in.init(cfg.K, true)
	}
	return s, nil
}

// Config returns the store's configuration.
func (s *DirectedStore) Config() Config { return s.cfg }

// ProcessArc folds the directed arc u → v into the sketches. Self-loops
// are ignored.
func (s *DirectedStore) ProcessArc(e stream.Edge) {
	if e.IsSelfLoop() {
		return
	}
	su := s.state(e.U)
	sv := s.state(e.V)
	if s.tiers != nil {
		// Canonical tiered half-arc order (count → promote → fold), as in
		// SketchStore.ProcessEdge; the two sides promote independently.
		s.hashBuf = s.family.HashAll(e.V, s.hashBuf)
		su.outArr++
		s.promoteOutIfDue(su)
		s.out.update(su.outSlot, e.V, s.hashBuf)
		s.hashBuf = s.family.HashAll(e.U, s.hashBuf)
		sv.inArr++
		s.promoteInIfDue(sv)
		s.in.update(sv.inSlot, e.U, s.hashBuf)
		su.outDeg.invalidate()
		sv.inDeg.invalidate()
		s.arcs++
		return
	}
	s.hashBuf = s.family.HashAll(e.V, s.hashBuf)
	s.out.update(su.outSlot, e.V, s.hashBuf)
	s.hashBuf = s.family.HashAll(e.U, s.hashBuf)
	s.in.update(sv.inSlot, e.U, s.hashBuf)
	su.outArr++
	sv.inArr++
	su.outDeg.invalidate()
	sv.inDeg.invalidate()
	s.arcs++
}

// promoteOutIfDue moves st's out-side sketch up through every tier whose
// arrival threshold st.outArr has reached (see SketchStore.promoteIfDue
// for the determinism argument).
func (s *DirectedStore) promoteOutIfDue(st *dirVertexState) {
	t := int(st.outSlot >> tierShift)
	for t+1 < len(s.tiers) && st.outArr >= s.tiers[t+1].PromoteAt {
		t++
		st.outSlot = s.out.promote(st.outSlot, t)
	}
}

// promoteInIfDue is promoteOutIfDue for the in-side sketch.
func (s *DirectedStore) promoteInIfDue(st *dirVertexState) {
	t := int(st.inSlot >> tierShift)
	for t+1 < len(s.tiers) && st.inArr >= s.tiers[t+1].PromoteAt {
		t++
		st.inSlot = s.in.promote(st.inSlot, t)
	}
}

// Process consumes an entire stream of arcs.
func (s *DirectedStore) Process(src stream.Source) (int64, error) {
	var n int64
	err := stream.ForEach(src, func(e stream.Edge) error {
		s.ProcessArc(e)
		n++
		return nil
	})
	return n, err
}

func (s *DirectedStore) state(u uint64) *dirVertexState {
	st := s.vertices[u]
	if st == nil {
		st = &dirVertexState{outSlot: s.out.alloc(), inSlot: s.in.alloc()}
		s.vertices[u] = st
	}
	return st
}

// Reserve pre-sizes the vertex map and both banks' tier-0 arenas for n
// expected vertices (sizing hint; see SketchStore.Reserve).
func (s *DirectedStore) Reserve(n int) {
	if n <= 0 {
		return
	}
	if len(s.vertices) == 0 {
		s.vertices = make(map[uint64]*dirVertexState, n)
	}
	s.out.reserve(n)
	s.in.reserve(n)
}

// TierOccupancy returns the live slot count per tier, summing the out-
// and in-side banks, or nil on a uniform store.
func (s *DirectedStore) TierOccupancy() []int {
	if s.tiers == nil {
		return nil
	}
	out := s.out.tierCounts()
	for i, n := range s.in.tierCounts() {
		out[i] += n
	}
	return out
}

// Knows reports whether u has appeared in the stream (either endpoint).
func (s *DirectedStore) Knows(u uint64) bool { return s.vertices[u] != nil }

// NumVertices returns the number of vertices seen.
func (s *DirectedStore) NumVertices() int { return len(s.vertices) }

// NumArcs returns the number of (non-self-loop) arcs processed, counting
// duplicates.
func (s *DirectedStore) NumArcs() int64 { return s.arcs }

// OutDegree returns the out-degree estimate of u under the configured
// DegreeMode.
func (s *DirectedStore) OutDegree(u uint64) float64 {
	st := s.vertices[u]
	if st == nil {
		return 0
	}
	return s.sideDegree(&st.outDeg, s.out.regs(st.outSlot), st.outArr)
}

// InDegree returns the in-degree estimate of u.
func (s *DirectedStore) InDegree(u uint64) float64 {
	st := s.vertices[u]
	if st == nil {
		return 0
	}
	return s.sideDegree(&st.inDeg, s.in.regs(st.inSlot), st.inArr)
}

// sideDegree is one side's degree under the configured DegreeMode; memo
// is that side's KMV memo, vals and arrivals its current state.
func (s *DirectedStore) sideDegree(memo *degMemo, vals []uint64, arrivals int64) float64 {
	if arrivals == 0 {
		return 0
	}
	if s.cfg.Degrees == DegreeArrivals {
		return float64(arrivals)
	}
	return memo.distinct(vals, arrivals)
}

// pairQuery is the directed side of the measure kernel (see
// measure_kernel.go): register matches between u's out-sketch and v's
// in-sketch, the two side degrees d_out(u) and d_in(v), and optionally
// the matched argmin ids (the sampled two-path midpoints).
func (s *DirectedStore) pairQuery(u, v uint64, collect bool, idBuf []uint64) (matches, effK int, du, dv float64, known bool, ids []uint64) {
	su, sv := s.vertices[u], s.vertices[v]
	if su == nil || sv == nil {
		return 0, s.cfg.K, 0, 0, false, idBuf
	}
	ids = idBuf
	outVals := s.out.regs(su.outSlot)
	inVals := s.in.regs(sv.inSlot)
	// Degrees use each side's full span; the match comparison runs over
	// the shared prefix (min-k prefix property, see estimators.go).
	du = s.sideDegree(&su.outDeg, outVals, su.outArr)
	dv = s.sideDegree(&sv.inDeg, inVals, sv.inArr)
	if len(inVals) < len(outVals) {
		outVals = outVals[:len(inVals)]
	}
	if !collect {
		matches = matchCount(outVals, inVals)
	} else {
		outIDs := s.out.argmins(su.outSlot)
		for i, val := range outVals {
			if val == emptyRegister || val != inVals[i] {
				continue
			}
			matches++
			ids = append(ids, outIDs[i])
		}
	}
	return matches, len(outVals), du, dv, true, ids
}

// midpointDegree weights directed midpoints by their estimated total
// (in+out) degree (measure kernel hook).
func (s *DirectedStore) midpointDegree(w uint64) float64 {
	return s.OutDegree(w) + s.InDegree(w)
}

// Estimate returns the estimate of any query measure for the candidate
// arc u → v. Note the asymmetry: Estimate(m, u, v) scores u → v, not
// v → u.
func (s *DirectedStore) Estimate(m QueryMeasure, u, v uint64) (float64, error) {
	return estimatePair(s, m, u, v)
}

// dirVertexOverhead is the rough per-vertex bookkeeping charge (map
// entry + pointers + two counters) used by MemoryBytes; package-level
// for the sharded directed store's memory gauges.
const dirVertexOverhead = 56

// MemoryBytes returns the payload memory: the two register banks' actual
// storage plus the usual rough per-vertex map overhead.
func (s *DirectedStore) MemoryBytes() int {
	return s.out.memoryBytes() + s.in.memoryBytes() + dirVertexOverhead*len(s.vertices)
}
