package bench

import (
	"fmt"
	"sort"

	"linkpred/internal/core"
	"linkpred/internal/exact"
	"linkpred/internal/gen"
	"linkpred/internal/graph"
	"linkpred/internal/rng"
	"linkpred/internal/stream"
)

// estimator is the per-pair query surface shared by the sketch stores
// and the baseline systems.
type estimator interface {
	Estimate(m core.QueryMeasure, u, v uint64) (float64, error)
}

// estimate scores one pair under a measure s models: the sketch stores
// model all six, the baselines the paper's three targets, and the
// experiments ask for nothing else, so the error is always nil.
func estimate(s estimator, m core.QueryMeasure, u, v uint64) float64 {
	f, _ := s.Estimate(m, u, v)
	return f
}

// RunConfig controls an experiment run.
type RunConfig struct {
	// Quick shrinks workloads (smaller streams, fewer sweep points, fewer
	// query pairs) so the whole suite runs in seconds. Used by unit tests
	// and the -quick flag; EXPERIMENTS.md numbers use Quick = false.
	Quick bool
	// Seed drives every stochastic choice in the experiment. The default
	// (0) is a valid seed; EXPERIMENTS.md uses 42 throughout.
	Seed uint64
	// Parallel is the maximum writer-goroutine count swept by the ingest
	// scaling experiment (e20): it measures 1, 2, 4, … up to Parallel.
	// 0 means the default of 8.
	Parallel int
	// Batch is the edges-per-batch size used by batched-ingest
	// measurements. 0 means the default of 256 (sized so concurrent
	// per-batch scratch buffers stay L2-resident).
	Batch int
}

// parallel returns the effective Parallel setting.
func (c RunConfig) parallel() int {
	if c.Parallel <= 0 {
		return 8
	}
	return c.Parallel
}

// batch returns the effective Batch setting.
func (c RunConfig) batch() int {
	if c.Batch <= 0 {
		return 256
	}
	return c.Batch
}

// scale returns the dataset scale for this config.
func (c RunConfig) scale() gen.Scale {
	if c.Quick {
		return gen.ScaleSmall
	}
	return gen.ScaleMedium
}

// Experiment is one reproducible table/figure of the evaluation suite.
type Experiment struct {
	// ID is the stable experiment identifier, e.g. "e2".
	ID string
	// Title is the human heading, matching DESIGN.md §6.
	Title string
	// Kind records whether the paper artifact is a table or a figure.
	Kind string
	// Run executes the experiment and returns its table.
	Run func(RunConfig) (*Table, error)
}

// registry holds all experiments, populated by init functions in the
// experiment files.
var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("bench: duplicate experiment id " + e.ID)
	}
	registry[e.ID] = e
}

// Lookup returns the experiment with the given id.
func Lookup(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return Experiment{}, fmt.Errorf("bench: unknown experiment %q (have %v)", id, ids())
	}
	return e, nil
}

// All returns every experiment in id order.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, id := range ids() {
		out = append(out, registry[id])
	}
	return out
}

func ids() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool {
		// Numeric-aware: e2 before e10.
		if len(out[i]) != len(out[j]) {
			return len(out[i]) < len(out[j])
		}
		return out[i] < out[j]
	})
	return out
}

// loadDataset materialises a stand-in stream as a deduplicated edge list
// (first-arrival order) — the canonical input for accuracy experiments,
// where the exact ground-truth graph and the DegreeArrivals counters must
// agree on degrees.
func loadDataset(d gen.Dataset, cfg RunConfig) ([]stream.Edge, error) {
	src, err := gen.Open(d, cfg.scale(), cfg.Seed)
	if err != nil {
		return nil, err
	}
	return stream.Collect(stream.Dedup(src))
}

// buildExact materialises an edge list into an exact graph.
func buildExact(edges []stream.Edge) *graph.Graph {
	g := graph.New()
	for _, e := range edges {
		g.AddEdge(e.U, e.V)
	}
	return g
}

// queryPair is a vertex pair with its exact measure values.
type queryPair struct {
	u, v    uint64
	jaccard float64
	cn      float64
	aa      float64
}

// sampleQueryPairs draws n query pairs for accuracy evaluation. Pairs are
// sampled the way link-prediction queries arise: pick a random vertex,
// then a random two-hop partner (guaranteeing at least one common
// neighbor, so relative errors are well defined), plus a 20% share of
// uniformly random pairs to also exercise the no-overlap regime.
func sampleQueryPairs(g *graph.Graph, n int, seed uint64) []queryPair {
	x := rng.NewXoshiro256(seed)
	vertices := g.VertexSlice()
	if len(vertices) < 2 {
		return nil
	}
	seen := make(map[[2]uint64]struct{}, n)
	pairs := make([]queryPair, 0, n)
	addPair := func(u, v uint64) {
		if u == v {
			return
		}
		if u > v {
			u, v = v, u
		}
		key := [2]uint64{u, v}
		if _, dup := seen[key]; dup {
			return
		}
		seen[key] = struct{}{}
		pairs = append(pairs, queryPair{
			u: u, v: v,
			jaccard: exact.Jaccard(g, u, v),
			cn:      exact.CommonNeighbors(g, u, v),
			aa:      exact.AdamicAdar(g, u, v),
		})
	}
	guard := 0
	for len(pairs) < n {
		if guard++; guard > 100*n {
			break // graph too small/sparse to yield n distinct pairs
		}
		u := vertices[x.Intn(len(vertices))]
		if len(pairs)%5 == 4 {
			addPair(u, vertices[x.Intn(len(vertices))])
			continue
		}
		hops := g.TwoHopNeighbors(u)
		if len(hops) == 0 {
			continue
		}
		addPair(u, hops[x.Intn(len(hops))])
	}
	return pairs
}

// splitBySeen partitions exact/estimated value pairs for one measure.
type measureErrors struct {
	est, truth []float64
}

func (m *measureErrors) add(est, truth float64) {
	m.est = append(m.est, est)
	m.truth = append(m.truth, truth)
}
