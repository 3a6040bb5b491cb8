package bench

import (
	"fmt"

	"linkpred/internal/baseline"
	"linkpred/internal/core"
	"linkpred/internal/eval"
	"linkpred/internal/gen"
	"linkpred/internal/stream"
)

func init() {
	register(Experiment{ID: "e5", Title: "E5: temporal link prediction (AUC, sketch vs exact vs reservoir)", Kind: "table", Run: runE5})
	register(Experiment{ID: "e7", Title: "E7: estimator ablations (AA matched vs biased; CN degrees vs union)", Kind: "figure", Run: runE7})
	register(Experiment{ID: "e9", Title: "E9: accuracy over stream progression", Kind: "figure", Run: runE9})
}

// runE5 reproduces the end-to-end temporal link-prediction table: train
// each system on the first 80% of the stream, score held-out future
// edges against sampled non-edges, report AUC, R-precision and memory.
//
// The reservoir is given a 10% edge-sampling budget — the standard
// bounded-memory subgraph baseline. (Matching the reservoir's budget to
// the sketch's byte count is not meaningful at laptop scale: with mean
// degree far below 2K the K-register sketch costs *more* bytes than the
// full adjacency, so a byte-matched reservoir would simply store the
// whole graph and become the exact system. The sketch's space advantage
// is its per-vertex constant bound, visible in E8; the accuracy
// comparison here is sketch-vs-subgraph-sampling at the sampling rate
// the paper's setting implies.)
func runE5(cfg RunConfig) (*Table, error) {
	k := 128
	if cfg.Quick {
		k = 64
	}
	t := &Table{
		Title:   fmt.Sprintf("E5: temporal link prediction, Adamic-Adar scores (sketch k=%d)", k),
		Columns: []string{"dataset", "system", "positives", "auc", "auc_95ci", "precision@N", "memory_MiB"},
		Notes: []string{
			"80/20 temporal split; positives = new future edges between trained vertices; equal-count sampled negatives",
			"expected shape: sketch ~= exact AUC; 10%-sample reservoir trails both on structured streams",
			"unstructured stand-ins (livejournal growth process, uniform youtube) yield few/zero-signal positives: neighborhood measures are uninformative there for every system, exact included",
		},
	}
	for _, d := range gen.AllDatasets {
		src, err := gen.Open(d, cfg.scale(), cfg.Seed)
		if err != nil {
			return nil, err
		}
		edges, err := stream.Collect(src)
		if err != nil {
			return nil, err
		}
		task, err := eval.NewTemporalTask(edges, 0.8, cfg.Seed+8)
		if err != nil {
			return nil, err
		}
		sketch, err := core.NewSketchStore(core.Config{
			K: k, Seed: cfg.Seed + 9, Degrees: core.DegreeDistinctKMV,
		})
		if err != nil {
			return nil, err
		}
		sketchRes, err := eval.RunTemporal(task, sketch, eval.ScoreAdamicAdar)
		if err != nil {
			return nil, err
		}
		// 10% edge-sampling budget: count the distinct training edges
		// first so the capacity is a true fraction of the input.
		distinct := make(map[[2]uint64]struct{})
		for _, e := range task.Train {
			if e.IsSelfLoop() {
				continue
			}
			c := e.Canonical()
			distinct[[2]uint64{c.U, c.V}] = struct{}{}
		}
		capacity := len(distinct) / 10
		if capacity < 1 {
			capacity = 1
		}
		reservoir, err := baseline.NewReservoir(capacity, cfg.Seed+10)
		if err != nil {
			return nil, err
		}
		reservoirRes, err := eval.RunTemporal(task, reservoir, eval.ScoreAdamicAdar)
		if err != nil {
			return nil, err
		}
		exactRes, err := eval.RunTemporal(task, baseline.NewExact(), eval.ScoreAdamicAdar)
		if err != nil {
			return nil, err
		}
		mib := func(b int) float64 { return float64(b) / (1 << 20) }
		trials := 200
		if cfg.Quick {
			trials = 50
		}
		ci := func(r eval.TemporalResult) string {
			lo, hi, err := r.BootstrapAUC(trials, 0.95, cfg.Seed+60)
			if err != nil {
				return "n/a"
			}
			return fmt.Sprintf("[%.3f, %.3f]", lo, hi)
		}
		t.AddRow(string(d), "exact", task.Positives(), exactRes.AUC, ci(exactRes), exactRes.PrecisionAtN, mib(exactRes.MemoryBytes))
		t.AddRow(string(d), "sketch", task.Positives(), sketchRes.AUC, ci(sketchRes), sketchRes.PrecisionAtN, mib(sketchRes.MemoryBytes))
		t.AddRow(string(d), "reservoir", task.Positives(), reservoirRes.AUC, ci(reservoirRes), reservoirRes.PrecisionAtN, mib(reservoirRes.MemoryBytes))
	}
	return t, nil
}

// runE7 reproduces the design-choice ablation figure: the two Adamic–Adar
// constructions (matched-register vs vertex-biased bottom-k) and the two
// common-neighbor routes (degree identity vs KMV union) across sketch
// sizes.
func runE7(cfg RunConfig) (*Table, error) {
	edges, err := loadDataset(gen.DatasetCoauthor, cfg)
	if err != nil {
		return nil, err
	}
	g := buildExact(edges)
	pairs := sampleQueryPairs(g, queryCount(cfg), cfg.Seed+11)
	t := &Table{
		Title:   "E7: estimator ablations on the coauthor stream",
		Columns: []string{"k", "aa_matched_rel_err", "aa_biased_rel_err", "cn_degrees_rel_err", "cn_union_rel_err"},
		Notes: []string{
			"expected shape: matched-register AA wins while k < typical degree (both genuinely sketch); once k exceeds most degrees the bottom-k sketch holds entire neighborhoods (tau = inf) and becomes exact, so biased AA error collapses to ~0 at equal space",
			"CN routes: degree-identity and KMV-union track each other; the identity route is preferred for its simpler error analysis",
		},
	}
	for _, k := range sweepKs(cfg) {
		s, err := core.NewSketchStore(core.Config{K: k, Seed: cfg.Seed + 12, EnableBiased: true})
		if err != nil {
			return nil, err
		}
		for _, e := range edges {
			s.ProcessEdge(e)
		}
		var aaM, aaB, cnD, cnU measureErrors
		for _, p := range pairs {
			aaM.add(estimate(s, core.QueryAdamicAdar, p.u, p.v), p.aa)
			aaB.add(s.EstimateAdamicAdarBiased(p.u, p.v), p.aa)
			cnD.add(estimate(s, core.QueryCommonNeighbors, p.u, p.v), p.cn)
			cnU.add(s.EstimateCommonNeighborsViaUnion(p.u, p.v), p.cn)
		}
		t.AddRow(k,
			eval.MeanRelativeError(aaM.est, aaM.truth, relErrFloorAA),
			eval.MeanRelativeError(aaB.est, aaB.truth, relErrFloorAA),
			eval.MeanRelativeError(cnD.est, cnD.truth, relErrFloorCN),
			eval.MeanRelativeError(cnU.est, cnU.truth, relErrFloorCN))
	}
	return t, nil
}

// runE9 reproduces the accuracy-over-time figure: at ten checkpoints
// along the stream, the error of each estimator against the exact graph
// at that same point — showing the sketch does not degrade as the graph
// densifies.
func runE9(cfg RunConfig) (*Table, error) {
	k := 128
	if cfg.Quick {
		k = 64
	}
	edges, err := loadDataset(gen.DatasetCoauthor, cfg)
	if err != nil {
		return nil, err
	}
	s, err := core.NewSketchStore(core.Config{K: k, Seed: cfg.Seed + 13})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("E9: estimation error over stream progression (coauthor, k=%d)", k),
		Columns: []string{"stream_pct", "edges", "jaccard_mae", "cn_rel_err", "aa_rel_err"},
		Notes:   []string{"expected shape: Jaccard MAE flat (improves slightly); CN/AA *relative* error grows as densification raises the degree-to-overlap ratio (the bound is additive ~ (d(u)+d(v))*eps, so relative error tracks (du+dv)/CN)"},
	}
	nPairs := queryCount(cfg) / 2
	processed := 0
	for chk := 1; chk <= 10; chk++ {
		limit := len(edges) * chk / 10
		for ; processed < limit; processed++ {
			s.ProcessEdge(edges[processed])
		}
		g := buildExact(edges[:limit])
		pairs := sampleQueryPairs(g, nPairs, cfg.Seed+14+uint64(chk))
		var j, cn, aa measureErrors
		for _, p := range pairs {
			j.add(estimate(s, core.QueryJaccard, p.u, p.v), p.jaccard)
			cn.add(estimate(s, core.QueryCommonNeighbors, p.u, p.v), p.cn)
			aa.add(estimate(s, core.QueryAdamicAdar, p.u, p.v), p.aa)
		}
		t.AddRow(10*chk, limit,
			eval.MAE(j.est, j.truth),
			eval.MeanRelativeError(cn.est, cn.truth, relErrFloorCN),
			eval.MeanRelativeError(aa.est, aa.truth, relErrFloorAA))
	}
	return t, nil
}
