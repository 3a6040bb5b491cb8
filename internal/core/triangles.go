package core

// Streaming triangle counting, for free from the sketches.
//
// Every triangle {u, v, w} has exactly one *closing* edge — the one that
// arrives last — and at that moment the other two edges are already in
// the graph, so the triangle is counted by |N(u) ∩ N(v)| evaluated just
// before the closing edge (u, v) is inserted. Summing the
// common-neighbor count at each arrival therefore counts every triangle
// exactly once:
//
//	T = Σ_{edges (u,v) in arrival order} |N_before(u) ∩ N_before(v)|
//
// Replacing the exact count with the sketch estimate ĈN gives a
// constant-space streaming triangle counter whose error inherits the
// common-neighbor estimator's guarantee. Duplicate edges re-count the
// triangles they close; feed the counter a deduplicated stream (or
// accept the overcount as a duplicate-rate artifact — E17 quantifies
// the clean-stream accuracy).
//
// Counting is opt-in (Config.TrackTriangles) because it adds one O(K)
// register comparison per edge to the ingest path.

// Per-vertex attribution: a triangle closed by edge (u, v) through
// midpoint w belongs to all three vertices. The endpoints receive the
// full ĈN estimate; the midpoints are only known through the matched
// registers' argmin ids — a uniform sample of the true midpoint set —
// so each sampled midpoint receives ĈN/|matches|, which is unbiased for
// its share. Dividing a vertex's accumulated triangles by d(d−1)/2
// estimates its local clustering coefficient.

// EstimateTriangles returns the accumulated global triangle estimate.
// It returns 0 until TrackTriangles is enabled and edges arrive.
func (s *SketchStore) EstimateTriangles() float64 { return s.triangles }

// EstimateVertexTriangles returns the estimated number of triangles
// incident to u accumulated so far (0 for unknown vertices or when
// TrackTriangles is off).
func (s *SketchStore) EstimateVertexTriangles(u uint64) float64 {
	st := s.vertices[u]
	if st == nil {
		return 0
	}
	return st.triangleShare()
}

// EstimateLocalClustering returns the estimated local clustering
// coefficient of u: triangles(u) / (d(u)·(d(u)−1)/2), clamped to [0, 1].
// It returns 0 for vertices of (estimated) degree < 2.
func (s *SketchStore) EstimateLocalClustering(u uint64) float64 {
	st := s.vertices[u]
	if st == nil {
		return 0
	}
	d := s.degree(st)
	if d < 2 {
		return 0
	}
	c := st.triangleShare() / (d * (d - 1) / 2)
	if c < 0 {
		return 0
	}
	if c > 1 {
		return 1
	}
	return c
}

// addTriangles folds the pre-insertion common-neighbor estimate of the
// arriving edge into the global and per-vertex triangle accumulators.
// Called by ProcessEdge before the registers are updated; su and sv are
// the endpoint states (already materialised, possibly fresh).
func (s *SketchStore) addTriangles(su, sv *vertexState) {
	if su.arrivals == 0 || sv.arrivals == 0 {
		return // a fresh endpoint has no neighbors: nothing to close
	}
	var matched int
	var midpoints []uint64
	suVals, suIDs := s.registers(su)
	svVals := s.bank.regs(sv.slot)
	for i, val := range suVals {
		if val == emptyRegister || val != svVals[i] {
			continue
		}
		matched++
		midpoints = append(midpoints, suIDs[i])
	}
	if matched == 0 {
		return
	}
	j := float64(matched) / float64(s.cfg.K)
	cn := j / (1 + j) * (s.degree(su) + s.degree(sv))
	s.triangles += cn
	su.opt.triangles += cn
	sv.opt.triangles += cn
	share := cn / float64(matched)
	for _, w := range midpoints {
		if st := s.vertices[w]; st != nil {
			st.opt.triangles += share
		}
	}
}
