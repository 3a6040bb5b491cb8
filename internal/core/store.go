package core

import (
	"fmt"
	"math"
	"sync/atomic"

	"linkpred/internal/hashing"
	"linkpred/internal/stream"
)

// DegreeMode selects how per-vertex degrees — needed by the
// common-neighbor and Adamic–Adar estimators — are maintained.
type DegreeMode int

const (
	// DegreeArrivals counts edge arrivals per vertex. It is exact when
	// every distinct edge appears once in the stream (the model of the
	// paper's analysis) and overcounts under duplicate arrivals.
	DegreeArrivals DegreeMode = iota
	// DegreeDistinctKMV estimates the number of *distinct* neighbors from
	// the MinHash registers themselves (a k-minimum-values distinct
	// counter, costing no extra space). It is robust to duplicate edges
	// at the price of ~1/√k relative noise in the degree terms.
	DegreeDistinctKMV
)

// String returns the mode's name.
func (m DegreeMode) String() string {
	switch m {
	case DegreeArrivals:
		return "arrivals"
	case DegreeDistinctKMV:
		return "kmv"
	default:
		return fmt.Sprintf("DegreeMode(%d)", int(m))
	}
}

// MaxTiers bounds the register-budget ladder of a tiered store. Config
// carries the ladder as a fixed-size array (not a slice) so Config stays
// comparable — the sharded loaders verify shard-config agreement with ==.
const MaxTiers = 4

// Tier is one rung of the query-aware register-budget ladder (DESIGN.md
// §2.13): vertices whose arrival count has reached PromoteAt carry K
// registers. The ladder trades registers on cold vertices for registers
// on the hot ones queries actually hit — the gSketch budgeting idea.
type Tier struct {
	// K is the register count of sketches in this tier.
	K int
	// PromoteAt is the per-vertex arrival count at which a vertex enters
	// this tier. Tier 0 must have PromoteAt == 0; later tiers must be
	// strictly increasing in both K and PromoteAt. Promotion depends only
	// on the vertex's own monotone counter, so it is deterministic under
	// any apply order (pipeline, batch, WAL replay).
	PromoteAt int64
}

// Config parameterises a sketch store.
type Config struct {
	// K is the number of MinHash registers per vertex. Larger K means
	// lower estimator variance (error ∝ 1/√K) and proportionally more
	// space and per-edge time. See theory.SketchSizeFor to derive K from
	// a target (ε, δ). Required: K >= 1.
	K int
	// Seed determines the hash family. Two stores with equal Seed, K and
	// Hash build identical sketches for identical streams.
	Seed uint64
	// Hash selects the hash-family construction. The default, mixed
	// hashing, is the fast path; tabulation trades speed for formal
	// 3-independence.
	Hash hashing.Kind
	// Degrees selects degree maintenance; see DegreeMode.
	Degrees DegreeMode
	// EnableBiased additionally maintains the vertex-biased bottom-K
	// sketches used by the alternative Adamic–Adar estimator
	// (EstimateAdamicAdarBiased). It roughly doubles per-vertex space.
	EnableBiased bool
	// TrackTriangles accumulates a streaming estimate of the global
	// triangle count (see triangles.go) at one extra O(K) register
	// comparison per edge.
	TrackTriangles bool
	// Tiers, when set (Tiers[0].K > 0), makes the register count a
	// per-vertex property: new vertices start with Tiers[0].K registers
	// and are promoted up the ladder as their arrival counts cross each
	// tier's PromoteAt. The last configured tier's K must equal K (the
	// hash family is sized for the largest sketches). The zero value is
	// the uniform store: every vertex carries exactly K registers, and
	// every on-disk image stays byte-identical to the pre-tier format.
	Tiers [MaxTiers]Tier
}

// activeTiers returns the configured tier ladder — the prefix of Tiers
// with K > 0 — or nil for a uniform store.
func (c Config) activeTiers() []Tier {
	n := 0
	for n < MaxTiers && c.Tiers[n].K > 0 {
		n++
	}
	if n == 0 {
		return nil
	}
	return c.Tiers[:n:n]
}

// tiered reports whether the config uses per-vertex register budgets.
func (c Config) tiered() bool { return c.Tiers[0].K > 0 }

// validateTiers checks the tier ladder. The zero ladder (uniform) is
// always valid.
func (c Config) validateTiers() error {
	ts := c.activeTiers()
	if ts == nil {
		for _, t := range c.Tiers {
			if t != (Tier{}) {
				return fmt.Errorf("core: Config.Tiers has a gap: set tiers contiguously from Tiers[0]")
			}
		}
		return nil
	}
	for i := len(ts); i < MaxTiers; i++ {
		if c.Tiers[i] != (Tier{}) {
			return fmt.Errorf("core: Config.Tiers has a gap at %d: set tiers contiguously from Tiers[0]", i)
		}
	}
	if len(ts) < 2 {
		return fmt.Errorf("core: Config.Tiers needs at least two tiers (one tier is the uniform store; leave Tiers zero)")
	}
	if ts[0].PromoteAt != 0 {
		return fmt.Errorf("core: Tiers[0].PromoteAt must be 0, got %d", ts[0].PromoteAt)
	}
	for i := 1; i < len(ts); i++ {
		if ts[i].K <= ts[i-1].K {
			return fmt.Errorf("core: tier K values must be strictly increasing (Tiers[%d].K = %d, Tiers[%d].K = %d)",
				i-1, ts[i-1].K, i, ts[i].K)
		}
		if ts[i].PromoteAt <= ts[i-1].PromoteAt {
			return fmt.Errorf("core: tier PromoteAt values must be strictly increasing (Tiers[%d] = %d, Tiers[%d] = %d)",
				i-1, ts[i-1].PromoteAt, i, ts[i].PromoteAt)
		}
	}
	if last := ts[len(ts)-1].K; last != c.K {
		return fmt.Errorf("core: last tier K (%d) must equal Config.K (%d): the hash family is sized for the largest sketches", last, c.K)
	}
	return nil
}

// tierFor returns the tier a vertex with the given monotone counter
// value occupies: the highest tier whose PromoteAt the counter has met.
// This is the whole promotion rule — no clock, no sampling, no
// cross-vertex state — which is what makes tiered stores byte-identical
// under every apply order and under WAL replay.
func tierFor(tiers []Tier, count int64) int {
	t := 0
	for t+1 < len(tiers) && count >= tiers[t+1].PromoteAt {
		t++
	}
	return t
}

// vertexState is the constant-size per-vertex state. The MinHash
// registers themselves live in the store's register bank (see regBank in
// sketch.go); slot indexes the vertex's k-span there. The optional
// extras sit behind one pointer so the state stays 32 bytes: half a
// cache line, which ingest and the query resolve pass touch per vertex.
type vertexState struct {
	slot     int32
	arrivals int64
	deg      degMemo    // KMV distinct-degree memo; cleared on every apply
	opt      *vertexOpt // nil unless Config.EnableBiased or TrackTriangles
}

// vertexOpt is the per-vertex state of the optional sketches.
type vertexOpt struct {
	biased *biasedSketch // nil unless Config.EnableBiased
	// triangles accumulates this vertex's share of closed triangles when
	// Config.TrackTriangles is set (see triangles.go).
	triangles float64
}

// triangleShare returns st's triangle accumulator (0 without one).
func (st *vertexState) triangleShare() float64 {
	if st.opt == nil {
		return 0
	}
	return st.opt.triangles
}

// SketchStore holds the per-vertex sketches for a graph stream and
// implements the paper's constant-time-per-edge maintenance.
//
// A SketchStore is not safe for concurrent mutation; wrap it or shard the
// stream if concurrent ingest is needed (estimator methods are read-only
// and may run concurrently with each other, but not with ProcessEdge).
type SketchStore struct {
	cfg      Config
	family   *hashing.Family
	biasHash hashing.Mixed // global rank hash for biased sketches
	vertices map[uint64]*vertexState
	bank     regBank // struct-of-arrays register storage for all vertices
	tiers    []Tier  // cfg.activeTiers(); nil on uniform stores
	edges    int64
	// triangles accumulates the streaming triangle estimate when
	// Config.TrackTriangles is set (see triangles.go).
	triangles float64

	// hashBuf is reused across ProcessEdge calls to keep the per-edge
	// path allocation-free after vertex states exist.
	hashBuf []uint64
}

// NewSketchStore returns an empty store with the given configuration.
// It returns an error if cfg.K < 1.
func NewSketchStore(cfg Config) (*SketchStore, error) {
	if cfg.K < 1 {
		return nil, fmt.Errorf("core: Config.K must be >= 1, got %d", cfg.K)
	}
	if err := cfg.validateTiers(); err != nil {
		return nil, err
	}
	if cfg.tiered() && cfg.EnableBiased {
		return nil, fmt.Errorf("core: Config.Tiers cannot be combined with EnableBiased")
	}
	if cfg.tiered() && cfg.TrackTriangles {
		return nil, fmt.Errorf("core: Config.Tiers cannot be combined with TrackTriangles")
	}
	s := &SketchStore{
		cfg:      cfg,
		family:   hashing.NewFamily(cfg.Hash, cfg.K, cfg.Seed),
		biasHash: hashing.NewMixed(cfg.Seed ^ 0xb1a5ed5eedf00d42),
		vertices: make(map[uint64]*vertexState),
		tiers:    cfg.activeTiers(),
		hashBuf:  make([]uint64, 0, cfg.K),
	}
	if s.tiers != nil {
		ks := make([]int, len(s.tiers))
		for i, t := range s.tiers {
			ks[i] = t.K
		}
		s.bank.initTiered(ks, true)
	} else {
		s.bank.init(cfg.K, true)
	}
	return s, nil
}

// Reserve pre-sizes the store for n expected vertices: the vertex map
// gets its capacity up front (only effective before any edge arrives)
// and the register bank's tier-0 arena is grown once instead of through
// a doubling cascade. A sizing hint, never required for correctness.
func (s *SketchStore) Reserve(n int) {
	if n <= 0 {
		return
	}
	if len(s.vertices) == 0 {
		s.vertices = make(map[uint64]*vertexState, n)
	}
	s.bank.reserve(n)
}

// TierOccupancy returns the live vertex count per register tier, or nil
// for a uniform store.
func (s *SketchStore) TierOccupancy() []int {
	if s.tiers == nil {
		return nil
	}
	return s.bank.tierCounts()
}

// Config returns the store's configuration.
func (s *SketchStore) Config() Config { return s.cfg }

// ProcessEdge folds one stream edge into the sketches of both endpoints.
// Self-loops are ignored. Cost: O(K) hash evaluations and register
// updates per endpoint.
func (s *SketchStore) ProcessEdge(e stream.Edge) {
	if e.IsSelfLoop() {
		return
	}
	su := s.state(e.U)
	sv := s.state(e.V)

	if s.cfg.TrackTriangles {
		// Count triangles this edge closes, before its own insertion.
		s.addTriangles(su, sv)
	}

	if s.tiers != nil {
		// Tiered order per endpoint: count the arrival, promote if the
		// count crossed a threshold, then fold the neighbor — so the
		// arrival that earns a tier is the first one folded into the new
		// registers. Every apply path (sequential, batched, pipelined, WAL
		// replay) uses this same per-half-edge order, which is what keeps
		// tiered stores byte-identical across them.
		s.hashBuf = s.family.HashAll(e.V, s.hashBuf)
		su.arrivals++
		s.promoteIfDue(su)
		s.bank.update(su.slot, e.V, s.hashBuf)
		s.hashBuf = s.family.HashAll(e.U, s.hashBuf)
		sv.arrivals++
		s.promoteIfDue(sv)
		s.bank.update(sv.slot, e.U, s.hashBuf)
		su.deg.invalidate()
		sv.deg.invalidate()
		s.edges++
		return
	}

	s.hashBuf = s.family.HashAll(e.V, s.hashBuf)
	s.bank.update(su.slot, e.V, s.hashBuf)
	s.hashBuf = s.family.HashAll(e.U, s.hashBuf)
	s.bank.update(sv.slot, e.U, s.hashBuf)

	su.arrivals++
	sv.arrivals++
	su.deg.invalidate()
	sv.deg.invalidate()
	s.edges++

	if s.cfg.EnableBiased {
		// Insert each endpoint into the other's biased sketch using the
		// degree known *after* this arrival (see biased.go for why).
		su.opt.biased.insert(e.V, s.rank(e.V))
		sv.opt.biased.insert(e.U, s.rank(e.U))
	}
}

// ProcessEdges folds a batch of edges in order. For the single-threaded
// store it is exactly a loop over ProcessEdge — there are no locks to
// amortize — and exists so callers can drive the plain and sharded
// stores through one batch-shaped API (the sharded ProcessEdges is the
// one with the staged pipeline).
func (s *SketchStore) ProcessEdges(edges []stream.Edge) {
	for _, e := range edges {
		s.ProcessEdge(e)
	}
}

// Process consumes an entire stream, returning the number of edges
// processed and the first source error, if any.
func (s *SketchStore) Process(src stream.Source) (int64, error) {
	var n int64
	err := stream.ForEach(src, func(e stream.Edge) error {
		s.ProcessEdge(e)
		n++
		return nil
	})
	return n, err
}

// promoteIfDue advances st to the tier its arrival count has earned,
// one rung at a time (a single edge can cross several thresholds when a
// loader replays an aggregated count). Depends only on st's own monotone
// counter, so it commutes with everything other vertices do.
func (s *SketchStore) promoteIfDue(st *vertexState) {
	t := int(st.slot >> tierShift)
	for t+1 < len(s.tiers) && st.arrivals >= s.tiers[t+1].PromoteAt {
		t++
		st.slot = s.bank.promote(st.slot, t)
	}
}

// state returns (creating if needed) the per-vertex state of u. Creating
// a vertex allocates a bank slot, which may move the bank's backing
// arrays — register slices derived before a state call are stale after
// it (see regBank).
func (s *SketchStore) state(u uint64) *vertexState {
	st := s.vertices[u]
	if st == nil {
		st = &vertexState{slot: s.bank.alloc()}
		if s.cfg.EnableBiased || s.cfg.TrackTriangles {
			st.opt = &vertexOpt{}
		}
		if s.cfg.EnableBiased {
			st.opt.biased = newBiasedSketch(s.cfg.K)
		}
		s.vertices[u] = st
	}
	return st
}

// registers returns st's register-value and argmin spans in the store's
// bank. Re-derive after any operation that can create a vertex.
func (s *SketchStore) registers(st *vertexState) (vals, ids []uint64) {
	return s.bank.regs(st.slot), s.bank.argmins(st.slot)
}

// Knows reports whether u has appeared in the stream.
func (s *SketchStore) Knows(u uint64) bool { return s.vertices[u] != nil }

// NumVertices returns the number of vertices seen so far.
func (s *SketchStore) NumVertices() int { return len(s.vertices) }

// NumEdges returns the number of (non-self-loop) edges processed,
// counting duplicates.
func (s *SketchStore) NumEdges() int64 { return s.edges }

// Degree returns the store's estimate of u's degree under the configured
// DegreeMode, or 0 if u is unknown. Under DegreeArrivals it is the exact
// arrival count; under DegreeDistinctKMV it is the KMV distinct-neighbor
// estimate.
func (s *SketchStore) Degree(u uint64) float64 {
	st := s.vertices[u]
	if st == nil {
		return 0
	}
	return s.degree(st)
}

func (s *SketchStore) degree(st *vertexState) float64 {
	if s.cfg.Degrees == DegreeArrivals {
		return float64(st.arrivals)
	}
	return st.deg.distinct(s.bank.regs(st.slot), st.arrivals)
}

// degMemo caches one sketch's KMV distinct-degree estimate (DESIGN.md
// §2.6) as float bits, 0 meaning stale. The estimate is a pure function
// of the sketch's registers and arrival counter, so the memo is derived
// state: never persisted, and every writer that changes either input
// clears it under the store's write lock (or in the single writer).
// Readers fill it under a read lock; concurrent fills store identical
// bits, which the atomic keeps race-free. A computed estimate of 0 (a
// sketch with an empty register) is simply never cached.
type degMemo struct{ bits atomic.Uint64 }

// distinct returns kmvDistinct(vals, arrivals), computing it only when
// the memo is stale. vals and arrivals must be the sketch's current
// state.
func (m *degMemo) distinct(vals []uint64, arrivals int64) float64 {
	if d, ok := m.cached(); ok {
		return d
	}
	d := kmvDistinct(vals, arrivals)
	m.bits.Store(math.Float64bits(d))
	return d
}

// cached returns the memoized estimate, or ok=false when it is stale.
func (m *degMemo) cached() (float64, bool) {
	b := m.bits.Load()
	return math.Float64frombits(b), b != 0
}

// invalidate marks the memo stale. Writers call it on every apply; the
// load skips the store (a locked write on amd64) when the memo is
// already stale, which it is on every ingest-only hot path.
func (m *degMemo) invalidate() {
	if m.bits.Load() != 0 {
		m.bits.Store(0)
	}
}

// kmvDistinct estimates the number of distinct items folded into the
// sketch. Each register holds the minimum of n i.i.d. uniforms (one per
// distinct neighbor, via hashing.Float01); −ln(1−min) is then Exp(n)
// distributed, so the sum over k registers is Gamma(k, n) and
// (k−1)/sum is the standard unbiased estimate of n. For k == 1 the MLE
// 1/sum is used. The estimate is clamped to [1, arrivals]: a vertex in
// the store has at least one neighbor, and cannot have more distinct
// neighbors than arrivals.
func kmvDistinct(vals []uint64, arrivals int64) float64 {
	k := len(vals)
	sum := 0.0
	for _, v := range vals {
		if v == emptyRegister {
			return 0
		}
		r := hashing.Float01(v)
		if r >= 1 { // guard the top of the range so Log1p stays finite
			r = 1 - 1.0/(1<<53)
		}
		sum += -math.Log1p(-r)
	}
	if sum <= 0 {
		return float64(arrivals)
	}
	var est float64
	if k == 1 {
		est = 1 / sum
	} else {
		est = float64(k-1) / sum
	}
	return math.Max(1, math.Min(est, float64(arrivals)))
}

// vertexOverhead is the rough per-vertex bookkeeping charge (map entry +
// pointers + counter) used by MemoryBytes. Package-level so the sharded
// store's per-shard memory gauges can reuse the same formula.
const vertexOverhead = 48

// MemoryBytes returns the payload memory of the store: the register
// bank's actual storage (values, plus argmin ids only when the bank
// tracks them), degree counters and (if enabled) biased sketches, plus
// the standard rough per-entry map overhead used throughout this
// repository for footprint comparisons (see graph.MemoryBytes).
func (s *SketchStore) MemoryBytes() int {
	total := s.bank.memoryBytes() + vertexOverhead*len(s.vertices)
	if s.cfg.EnableBiased {
		for _, st := range s.vertices {
			total += st.opt.biased.memoryBytes()
		}
	}
	return total
}

// rank returns the vertex-biased rank of w used by the biased sketches:
// an Exp(weight(w)) variate derived deterministically from a global hash
// of w, where weight(w) = 1/ln(max(d(w), 2)) is the Adamic–Adar weight
// under the store's *current* degree estimate for w. Lower rank ⇒ more
// likely sampled, so low-degree (high-weight) vertices are biased in.
func (s *SketchStore) rank(w uint64) float64 {
	u01 := hashing.Float01(s.biasHash.Hash(w))
	return -math.Log(u01) / s.aaWeight(w)
}

// aaWeight returns the Adamic–Adar weight 1/ln d(w) under the store's
// current degree estimate, clamping the degree at 2 so the weight is
// always finite (a true common neighbor always has degree >= 2; the
// clamp only engages for degree-1 vertices, which can never contribute
// to a well-formed query).
func (s *SketchStore) aaWeight(w uint64) float64 {
	d := math.Max(s.Degree(w), 2)
	return 1 / math.Log(d)
}
