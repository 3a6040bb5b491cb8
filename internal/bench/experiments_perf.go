package bench

import (
	"fmt"
	"time"

	"linkpred/internal/baseline"
	"linkpred/internal/core"
	"linkpred/internal/gen"
	"linkpred/internal/rng"
	"linkpred/internal/stream"
)

func init() {
	register(Experiment{ID: "e6", Title: "E6: ingest throughput (edges/sec)", Kind: "figure", Run: runE6})
	register(Experiment{ID: "e8", Title: "E8: memory footprint vs stream length", Kind: "figure", Run: runE8})
	register(Experiment{ID: "e10", Title: "E10: query latency per measure", Kind: "figure", Run: runE10})
}

// Wall-clock timing is confined to this file: the perf experiments are
// measurements, not library logic, and their numbers are machine-
// dependent by nature (EXPERIMENTS.md reports shapes, not absolutes).

// perfStream materialises the throughput workload: a large BA stream.
func perfStream(cfg RunConfig) ([]stream.Edge, error) {
	scale := gen.ScaleLarge
	if cfg.Quick {
		scale = gen.ScaleSmall
	}
	src, err := gen.Open(gen.DatasetLiveJournal, scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return stream.Collect(src)
}

// runE6 reproduces the throughput figure: edges/second for the sketch at
// several k, against exact adjacency maintenance and the reservoir.
func runE6(cfg RunConfig) (*Table, error) {
	edges, err := perfStream(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("E6: ingest throughput over %d edges (BA stream)", len(edges)),
		Columns: []string{"system", "ns_per_edge", "edges_per_sec"},
		Notes: []string{
			"expected shape: sketch cost flat in stream length, linear in k; exact degrades as adjacency grows",
		},
	}
	ks := []int{32, 128, 512}
	if cfg.Quick {
		ks = []int{16, 64}
	}
	ingest := func(sys baseline.System) float64 {
		start := time.Now()
		for _, e := range edges {
			sys.ProcessEdge(e)
		}
		return float64(time.Since(start).Nanoseconds()) / float64(len(edges))
	}
	for _, k := range ks {
		s, err := core.NewSketchStore(core.Config{K: k, Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		ns := ingest(s)
		t.AddRow(fmt.Sprintf("sketch k=%d", k), ns, 1e9/ns)
	}
	ns := ingest(baseline.NewExact())
	t.AddRow("exact", ns, 1e9/ns)
	r, err := baseline.NewReservoir(100_000, cfg.Seed)
	if err != nil {
		return nil, err
	}
	ns = ingest(r)
	t.AddRow("reservoir 100k", ns, 1e9/ns)
	return t, nil
}

// runE8 reproduces the memory figure: payload bytes of each system at
// checkpoints along the stream. The sketch's bytes-per-vertex column is
// the paper's constant-space-per-vertex claim made visible.
func runE8(cfg RunConfig) (*Table, error) {
	k := 128
	if cfg.Quick {
		k = 64
	}
	edges, err := perfStream(cfg)
	if err != nil {
		return nil, err
	}
	s, err := core.NewSketchStore(core.Config{K: k, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	ex := baseline.NewExact()
	r, err := baseline.NewReservoir(100_000, cfg.Seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("E8: memory footprint vs stream length (BA stream, sketch k=%d)", k),
		Columns: []string{"edges", "sketch_MiB", "sketch_B_per_vertex", "exact_MiB", "reservoir_MiB"},
		Notes: []string{
			"expected shape: sketch bytes/vertex constant; exact total grows with edges",
		},
	}
	processed := 0
	for chk := 1; chk <= 10; chk++ {
		limit := len(edges) * chk / 10
		for ; processed < limit; processed++ {
			s.ProcessEdge(edges[processed])
			ex.ProcessEdge(edges[processed])
			r.ProcessEdge(edges[processed])
		}
		mib := func(b int) float64 { return float64(b) / (1 << 20) }
		perVertex := 0.0
		if s.NumVertices() > 0 {
			perVertex = float64(s.MemoryBytes()) / float64(s.NumVertices())
		}
		t.AddRow(limit, mib(s.MemoryBytes()), perVertex, mib(ex.MemoryBytes()), mib(r.MemoryBytes()))
	}
	return t, nil
}

// runE10 reproduces the query-latency figure: nanoseconds per estimate
// for each measure as k grows, against the exact query cost on the full
// graph.
func runE10(cfg RunConfig) (*Table, error) {
	src, err := gen.Open(gen.DatasetFlickr, cfg.scale(), cfg.Seed)
	if err != nil {
		return nil, err
	}
	edges, err := stream.Collect(src)
	if err != nil {
		return nil, err
	}
	ex := baseline.NewExact()
	for _, e := range edges {
		ex.ProcessEdge(e)
	}
	// Query workload: random vertex pairs from the observed vertex set.
	vs := ex.Graph().VertexSlice()
	x := rng.NewXoshiro256(cfg.Seed + 15)
	nQueries := 20_000
	if cfg.Quick {
		nQueries = 2_000
	}
	type pair struct{ u, v uint64 }
	queries := make([]pair, nQueries)
	for i := range queries {
		queries[i] = pair{vs[x.Intn(len(vs))], vs[x.Intn(len(vs))]}
	}
	timeQueries := func(sys estimator, m core.QueryMeasure) float64 {
		var sink float64
		start := time.Now()
		for _, q := range queries {
			sink += estimate(sys, m, q.u, q.v)
		}
		elapsed := time.Since(start)
		_ = sink
		return float64(elapsed.Nanoseconds()) / float64(len(queries))
	}
	t := &Table{
		Title:   fmt.Sprintf("E10: query latency, ns/query over %d random pairs (flickr stand-in)", nQueries),
		Columns: []string{"system", "jaccard", "common_neighbors", "adamic_adar"},
		Notes: []string{
			"expected shape: sketch latency linear in k and independent of degree; exact cost scales with neighborhood size",
		},
	}
	ks := []int{32, 128, 512}
	if cfg.Quick {
		ks = []int{16, 64}
	}
	for _, k := range ks {
		s, err := core.NewSketchStore(core.Config{K: k, Seed: cfg.Seed + 16})
		if err != nil {
			return nil, err
		}
		for _, e := range edges {
			s.ProcessEdge(e)
		}
		t.AddRow(fmt.Sprintf("sketch k=%d", k),
			timeQueries(s, core.QueryJaccard),
			timeQueries(s, core.QueryCommonNeighbors),
			timeQueries(s, core.QueryAdamicAdar))
	}
	t.AddRow("exact",
		timeQueries(ex, core.QueryJaccard),
		timeQueries(ex, core.QueryCommonNeighbors),
		timeQueries(ex, core.QueryAdamicAdar))
	return t, nil
}
