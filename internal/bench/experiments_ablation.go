package bench

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"linkpred/internal/core"
	"linkpred/internal/eval"
	"linkpred/internal/gen"
	"linkpred/internal/hashing"
	"linkpred/internal/stream"
)

// Supplementary experiments beyond the paper's reconstructed suite:
// ablations of this implementation's design choices (hash family, degree
// maintenance) and evaluations of the two extensions (sliding window,
// sharded concurrency). EXPERIMENTS.md reports them alongside E1–E10.

func init() {
	register(Experiment{ID: "e11", Title: "E11: hash-family ablation (mixed vs tabulation)", Kind: "figure", Run: runE11})
	register(Experiment{ID: "e12", Title: "E12: duplicate-edge robustness (degree modes)", Kind: "figure", Run: runE12})
	register(Experiment{ID: "e13", Title: "E13: sliding window under concept drift", Kind: "figure", Run: runE13})
	register(Experiment{ID: "e14", Title: "E14: concurrent ingest scaling (sharded store)", Kind: "figure", Run: runE14})
}

// runE11 compares the two hash-family constructions on accuracy and
// per-edge cost: the salted-mixing family is faster; 3-independent
// tabulation is the theoretically safer choice. The experiment shows the
// estimator does not secretly depend on hash artifacts.
func runE11(cfg RunConfig) (*Table, error) {
	edges, err := loadDataset(gen.DatasetCoauthor, cfg)
	if err != nil {
		return nil, err
	}
	g := buildExact(edges)
	pairs := sampleQueryPairs(g, queryCount(cfg), cfg.Seed+21)
	t := &Table{
		Title:   "E11: hash-family ablation (coauthor stream)",
		Columns: []string{"k", "hash", "jaccard_mae", "aa_rel_err", "ns_per_edge"},
		Notes:   []string{"expected shape: near-identical accuracy; mixed hashing meaningfully faster per edge"},
	}
	ks := []int{32, 128}
	if cfg.Quick {
		ks = []int{32}
	}
	for _, k := range ks {
		for _, kind := range []hashing.Kind{hashing.KindMixed, hashing.KindTabulation} {
			s, err := core.NewSketchStore(core.Config{K: k, Seed: cfg.Seed + 22, Hash: kind})
			if err != nil {
				return nil, err
			}
			start := time.Now()
			for _, e := range edges {
				s.ProcessEdge(e)
			}
			nsPerEdge := float64(time.Since(start).Nanoseconds()) / float64(len(edges))
			var j, aa measureErrors
			for _, p := range pairs {
				j.add(estimate(s, core.QueryJaccard, p.u, p.v), p.jaccard)
				aa.add(estimate(s, core.QueryAdamicAdar, p.u, p.v), p.aa)
			}
			t.AddRow(k, kind.String(),
				eval.MAE(j.est, j.truth),
				eval.MeanRelativeError(aa.est, aa.truth, relErrFloorAA),
				nsPerEdge)
		}
	}
	return t, nil
}

// runE12 measures robustness to duplicate edge arrivals: the *raw*
// coauthor stream (repeated collaborations appear repeatedly) is fed to
// stores in both degree modes and compared against the deduplicated
// ground truth. Arrival counting inflates degrees and with them the CN
// and AA estimates; the KMV distinct mode pays ~1/√k noise but stays
// calibrated.
func runE12(cfg RunConfig) (*Table, error) {
	src, err := gen.Open(gen.DatasetCoauthor, cfg.scale(), cfg.Seed)
	if err != nil {
		return nil, err
	}
	raw, err := stream.Collect(src) // duplicates preserved
	if err != nil {
		return nil, err
	}
	g := buildExact(raw) // AddEdge dedups: the true distinct graph
	pairs := sampleQueryPairs(g, queryCount(cfg), cfg.Seed+23)
	dupFrac := 1 - float64(g.NumEdges())/float64(len(raw))
	t := &Table{
		Title:   "E12: duplicate-edge robustness (raw coauthor stream)",
		Columns: []string{"k", "degree_mode", "cn_rel_err", "aa_rel_err"},
		Notes: []string{
			fmt.Sprintf("raw stream has %.0f%% duplicate arrivals", 100*dupFrac),
			"expected shape: arrivals mode degrades with duplication; kmv mode stays calibrated",
		},
	}
	ks := []int{64, 256}
	if cfg.Quick {
		ks = []int{64}
	}
	for _, k := range ks {
		for _, mode := range []core.DegreeMode{core.DegreeArrivals, core.DegreeDistinctKMV} {
			s, err := core.NewSketchStore(core.Config{K: k, Seed: cfg.Seed + 24, Degrees: mode})
			if err != nil {
				return nil, err
			}
			for _, e := range raw {
				s.ProcessEdge(e)
			}
			var cn, aa measureErrors
			for _, p := range pairs {
				cn.add(estimate(s, core.QueryCommonNeighbors, p.u, p.v), p.cn)
				aa.add(estimate(s, core.QueryAdamicAdar, p.u, p.v), p.aa)
			}
			t.AddRow(k, mode.String(),
				eval.MeanRelativeError(cn.est, cn.truth, relErrFloorCN),
				eval.MeanRelativeError(aa.est, aa.truth, relErrFloorAA))
		}
	}
	return t, nil
}

// runE13 evaluates the sliding-window extension under concept drift: two
// structurally unrelated co-authorship phases are concatenated; queries
// about the *current* graph (phase 2 only) are answered by a full-history
// store and by a windowed store sized to cover phase 2. The full-history
// store is polluted by phase-1 edges; the windowed store tracks the
// truth.
func runE13(cfg RunConfig) (*Table, error) {
	k := 128
	if cfg.Quick {
		k = 64
	}
	n, papers := 4_000, 16_000
	if cfg.Quick {
		n, papers = 1_000, 4_000
	}
	phase := func(seed uint64) ([]stream.Edge, error) {
		src, err := gen.Coauthor(n, papers, n/100, seed)
		if err != nil {
			return nil, err
		}
		return stream.Collect(stream.Dedup(src))
	}
	// Phase 2 uses shuffled vertex identities (offset by a large odd
	// multiplier mod n) so its community structure is unrelated to
	// phase 1's while the vertex universe stays the same.
	p1, err := phase(cfg.Seed + 25)
	if err != nil {
		return nil, err
	}
	p2raw, err := phase(cfg.Seed + 26)
	if err != nil {
		return nil, err
	}
	remap := func(u uint64) uint64 { return (u*2654435761 + 17) % uint64(n) }
	var all []stream.Edge
	ts := int64(0)
	for _, e := range p1 {
		all = append(all, stream.Edge{U: e.U, V: e.V, T: ts})
		ts++
	}
	phase2Start := ts
	var p2 []stream.Edge
	for _, e := range p2raw {
		u, v := remap(e.U), remap(e.V)
		if u == v {
			continue
		}
		ne := stream.Edge{U: u, V: v, T: ts}
		all = append(all, ne)
		p2 = append(p2, ne)
		ts++
	}

	full, err := core.NewSketchStore(core.Config{K: k, Seed: cfg.Seed + 27, Degrees: core.DegreeDistinctKMV})
	if err != nil {
		return nil, err
	}
	// Window sized to phase 2 (with generation slack).
	windowed, err := core.NewWindowed(core.Config{K: k, Seed: cfg.Seed + 27}, int64(len(p2))*5/4, 4)
	if err != nil {
		return nil, err
	}
	for _, e := range all {
		full.ProcessEdge(e)
		windowed.ProcessEdge(e)
	}
	_ = phase2Start

	// Ground truth: the phase-2 graph only ("the current network").
	g := buildExact(p2)
	pairs := sampleQueryPairs(g, queryCount(cfg), cfg.Seed+28)
	var fullJ, winJ, fullCN, winCN measureErrors
	for _, p := range pairs {
		fullJ.add(estimate(full, core.QueryJaccard, p.u, p.v), p.jaccard)
		winJ.add(estimate(windowed, core.QueryJaccard, p.u, p.v), p.jaccard)
		fullCN.add(estimate(full, core.QueryCommonNeighbors, p.u, p.v), p.cn)
		winCN.add(estimate(windowed, core.QueryCommonNeighbors, p.u, p.v), p.cn)
	}
	t := &Table{
		Title:   fmt.Sprintf("E13: concept drift — error vs the current (phase-2) graph (k=%d)", k),
		Columns: []string{"system", "jaccard_mae", "cn_rel_err"},
		Notes: []string{
			"stream = phase-1 coauthor graph then structurally unrelated phase-2 graph over the same vertices",
			"expected shape: windowed store tracks the current graph; full-history store is polluted by stale edges",
		},
	}
	t.AddRow("full-history", eval.MAE(fullJ.est, fullJ.truth), eval.MeanRelativeError(fullCN.est, fullCN.truth, relErrFloorCN))
	t.AddRow("windowed", eval.MAE(winJ.est, winJ.truth), eval.MeanRelativeError(winCN.est, winCN.truth, relErrFloorCN))
	return t, nil
}

// runE14 measures concurrent ingest scaling: wall-clock throughput of
// the sharded store as writer goroutines increase, against the
// single-threaded plain store.
func runE14(cfg RunConfig) (*Table, error) {
	k := 64
	edges, err := perfStream(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("E14: concurrent ingest scaling over %d edges (k=%d, %d CPUs)", len(edges), k, runtime.NumCPU()),
		Columns: []string{"system", "writers", "edges_per_sec"},
		Notes:   []string{"expected shape: throughput grows with writers until lock/memory contention saturates"},
	}
	plain, err := core.NewSketchStore(core.Config{K: k, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for _, e := range edges {
		plain.ProcessEdge(e)
	}
	t.AddRow("plain", 1, float64(len(edges))/time.Since(start).Seconds())

	writerCounts := []int{1, 2, 4, 8}
	if cfg.Quick {
		writerCounts = []int{1, 4}
	}
	for _, writers := range writerCounts {
		sharded, err := core.NewSharded(core.Config{K: k, Seed: cfg.Seed}, 4*writers)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		var wg sync.WaitGroup
		chunk := (len(edges) + writers - 1) / writers
		for w := 0; w < writers; w++ {
			lo := w * chunk
			hi := lo + chunk
			if hi > len(edges) {
				hi = len(edges)
			}
			if lo >= hi {
				continue
			}
			wg.Add(1)
			go func(part []stream.Edge) {
				defer wg.Done()
				for _, e := range part {
					sharded.ProcessEdge(e)
				}
			}(edges[lo:hi])
		}
		wg.Wait()
		t.AddRow("sharded", writers, float64(len(edges))/time.Since(start).Seconds())
	}
	return t, nil
}
