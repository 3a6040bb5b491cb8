package eval

import (
	"fmt"
	"math"
	"sort"

	"linkpred/internal/baseline"
	"linkpred/internal/core"
	"linkpred/internal/graph"
	"linkpred/internal/rng"
	"linkpred/internal/stream"
)

// Temporal link prediction: train every system on the first fraction of
// the stream, then measure how well each system's scores separate edges
// that DO arrive in the remainder ("positives") from vertex pairs that
// never arrive ("negatives"). This is the end-to-end task the measures
// exist for, and the E5 experiment of the reconstructed suite.

// TemporalTask is a prepared temporal-split evaluation: a training
// prefix plus a labelled set of query pairs.
type TemporalTask struct {
	// Train is the stream prefix systems must consume before scoring.
	Train []stream.Edge
	// Pairs are the query pairs to score.
	Pairs [][2]uint64
	// Labels[i] is true iff Pairs[i] appears as an edge in the held-out
	// suffix.
	Labels []bool
}

// NewTemporalTask builds a temporal evaluation from a full edge list.
// frac is the training fraction (e.g. 0.8). The positive pairs are the
// distinct test-suffix edges between vertices already seen in training
// (a streaming predictor cannot be expected to score never-seen
// vertices); the negatives are an equal number of uniformly sampled
// trained-vertex pairs that appear in neither split. It returns an error
// if the split leaves no usable positives.
func NewTemporalTask(edges []stream.Edge, frac float64, seed uint64) (*TemporalTask, error) {
	train, test, err := stream.Split(edges, frac)
	if err != nil {
		return nil, err
	}
	// Index training state: known vertices and existing edges.
	trainGraph := graph.New()
	for _, e := range train {
		trainGraph.AddEdge(e.U, e.V)
	}
	known := trainGraph.VertexSlice()
	if len(known) < 2 {
		return nil, fmt.Errorf("eval: temporal split has %d trained vertices; need >= 2", len(known))
	}
	inTrain := func(u, v uint64) bool { return trainGraph.HasEdge(u, v) }

	// Positives: distinct new edges between known vertices.
	posSeen := make(map[[2]uint64]struct{})
	var pairs [][2]uint64
	var labels []bool
	for _, e := range test {
		if e.IsSelfLoop() {
			continue
		}
		c := e.Canonical()
		key := [2]uint64{c.U, c.V}
		if _, dup := posSeen[key]; dup {
			continue
		}
		if trainGraph.Degree(c.U) == 0 || trainGraph.Degree(c.V) == 0 || inTrain(c.U, c.V) {
			continue
		}
		posSeen[key] = struct{}{}
		pairs = append(pairs, key)
		labels = append(labels, true)
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("eval: temporal split yields no scorable positive pairs")
	}

	// Negatives: same count, sampled uniformly over known×known pairs
	// absent from both splits.
	testGraph := graph.New()
	for _, e := range test {
		testGraph.AddEdge(e.U, e.V)
	}
	x := rng.NewXoshiro256(seed)
	need := len(pairs)
	guard := 0
	for added := 0; added < need; {
		if guard++; guard > 100*need {
			return nil, fmt.Errorf("eval: could not sample %d negative pairs (graph too dense?)", need)
		}
		u := known[x.Intn(len(known))]
		v := known[x.Intn(len(known))]
		if u == v {
			continue
		}
		c := stream.Edge{U: u, V: v}.Canonical()
		key := [2]uint64{c.U, c.V}
		if _, dup := posSeen[key]; dup {
			continue
		}
		if inTrain(c.U, c.V) || testGraph.HasEdge(c.U, c.V) {
			continue
		}
		posSeen[key] = struct{}{} // also guards against duplicate negatives
		pairs = append(pairs, key)
		labels = append(labels, false)
		added++
	}
	return &TemporalTask{Train: train, Pairs: pairs, Labels: labels}, nil
}

// Positives returns the number of positive query pairs.
func (t *TemporalTask) Positives() int {
	n := 0
	for _, l := range t.Labels {
		if l {
			n++
		}
	}
	return n
}

// TemporalResult reports one system's performance on a TemporalTask.
type TemporalResult struct {
	// AUC is the probability a random positive pair outscores a random
	// negative pair.
	AUC float64
	// PrecisionAtN is the fraction of the N highest-scored pairs that are
	// positive, with N = number of positives (i.e. R-precision).
	PrecisionAtN float64
	// MemoryBytes is the system's payload memory after training.
	MemoryBytes int

	// scores and labels are retained so callers can compute curves and
	// confidence intervals without re-running the system.
	scores []float64
	labels []bool
}

// BootstrapAUC returns a percentile-bootstrap confidence interval for
// the result's AUC (see eval.BootstrapAUC).
func (r TemporalResult) BootstrapAUC(trials int, level float64, seed uint64) (lo, hi float64, err error) {
	_, lo, hi, err = BootstrapAUC(r.scores, r.labels, trials, level, seed)
	return lo, hi, err
}

// ScoreFunc extracts one measure's estimate from a System.
type ScoreFunc func(sys baseline.System, u, v uint64) float64

// The three ScoreFuncs below query the paper's target measures, which
// every System models, so Estimate cannot fail for them.

// ScoreJaccard scores with the Jaccard estimate.
func ScoreJaccard(sys baseline.System, u, v uint64) float64 {
	s, _ := sys.Estimate(core.QueryJaccard, u, v)
	return s
}

// ScoreCommonNeighbors scores with the common-neighbor estimate.
func ScoreCommonNeighbors(sys baseline.System, u, v uint64) float64 {
	s, _ := sys.Estimate(core.QueryCommonNeighbors, u, v)
	return s
}

// ScoreAdamicAdar scores with the Adamic–Adar estimate.
func ScoreAdamicAdar(sys baseline.System, u, v uint64) float64 {
	s, _ := sys.Estimate(core.QueryAdamicAdar, u, v)
	return s
}

// RunTemporal trains sys on the task's prefix and evaluates the given
// measure. The system must be fresh (unconsumed); RunTemporal feeds it
// the training edges itself.
func RunTemporal(task *TemporalTask, sys baseline.System, score ScoreFunc) (TemporalResult, error) {
	for _, e := range task.Train {
		sys.ProcessEdge(e)
	}
	scores := make([]float64, len(task.Pairs))
	for i, p := range task.Pairs {
		scores[i] = score(sys, p[0], p[1])
	}
	auc, err := AUC(scores, task.Labels)
	if err != nil {
		return TemporalResult{}, err
	}
	return TemporalResult{
		AUC:          auc,
		PrecisionAtN: rPrecision(scores, task.Labels),
		MemoryBytes:  sys.MemoryBytes(),
		scores:       scores,
		labels:       task.Labels,
	}, nil
}

// rPrecision returns precision at N = number of positives. Score ties
// straddling the cutoff are resolved in expectation (tied items
// contribute their group's positive fraction for the remaining slots),
// so a system that scores everything equally — e.g. a heavily
// subsampling baseline returning mostly zeros — earns the base rate, not
// whatever the input happened to be ordered by.
func rPrecision(scores []float64, labels []bool) float64 {
	n := 0
	for _, l := range labels {
		if l {
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	hits := 0.0
	taken := 0
	for i := 0; i < len(idx) && taken < n; {
		// Identify the tie group [i, j).
		j := i
		for j < len(idx) && scores[idx[j]] == scores[idx[i]] {
			j++
		}
		groupPos := 0
		for _, t := range idx[i:j] {
			if labels[t] {
				groupPos++
			}
		}
		groupSize := j - i
		slots := n - taken
		if groupSize <= slots {
			hits += float64(groupPos)
			taken += groupSize
		} else {
			hits += float64(slots) * float64(groupPos) / float64(groupSize)
			taken = n
		}
		i = j
	}
	return hits / float64(n)
}
