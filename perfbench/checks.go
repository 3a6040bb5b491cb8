package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"math"
	"net/http"
	"sort"

	linkpred "linkpred"
	"linkpred/internal/exact"
	"linkpred/internal/graph"
	"linkpred/internal/stream"
)

// serverSpec is the engine lpserver builds with its default flags.
// Reference engines use it with the ingest pipeline off, so they apply
// every batch on the caller's goroutine, in order.
func serverSpec(workers int) linkpred.EngineSpec {
	return linkpred.EngineSpec{
		Mode:          linkpred.ModeConcurrent,
		Config:        linkpred.Config{K: 128, Seed: 42, DistinctDegrees: true},
		Shards:        8,
		IngestWorkers: workers,
	}
}

// referenceEngine feeds edges, in order, to a single-threaded engine
// with the server's configuration.
func referenceEngine(edges []stream.Edge) (linkpred.Engine, error) {
	eng, err := linkpred.NewEngine(serverSpec(-1))
	if err != nil {
		return nil, err
	}
	for lo := 0; lo < len(edges); lo += 4096 {
		eng.ObserveEdges(toLinkpred(edges[lo:min(lo+4096, len(edges))]))
	}
	return eng, nil
}

// digest is a checkpoint image's SHA-256 and length.
type digest struct {
	sum  [sha256.Size]byte
	size int64
}

func (d digest) String() string { return fmt.Sprintf("%x (%d bytes)", d.sum[:8], d.size) }

// countingHash hashes what is written to it and counts the bytes.
type countingHash struct {
	h hash.Hash
	n int64
}

func (c *countingHash) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return c.h.Write(p)
}

func (c *countingHash) digest() digest {
	var d digest
	copy(d.sum[:], c.h.Sum(nil))
	d.size = c.n
	return d
}

// saveDigest hashes an engine's Save image without holding it.
func saveDigest(eng linkpred.Engine) (digest, error) {
	ch := &countingHash{h: sha256.New()}
	if err := eng.Save(ch); err != nil {
		return digest{}, err
	}
	return ch.digest(), nil
}

// checkpointDigest hashes the server's GET /checkpoint image as it streams.
func checkpointDigest(c *http.Client, base string) (digest, error) {
	resp, err := c.Get(base + "/checkpoint")
	if err != nil {
		return digest{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return digest{}, fmt.Errorf("GET /checkpoint: status %d", resp.StatusCode)
	}
	ch := &countingHash{h: sha256.New()}
	if _, err := io.Copy(ch, resp.Body); err != nil {
		return digest{}, fmt.Errorf("GET /checkpoint: %w", err)
	}
	return ch.digest(), nil
}

// fetchAnswers sends reqs one at a time (untimed) and decodes the answers.
func fetchAnswers(c *http.Client, base string, reqs []topkReq) ([]topkAnswer, error) {
	out := make([]topkAnswer, len(reqs))
	var buf bytes.Buffer
	for i, r := range reqs {
		if err := getBody(c, base+r.path, &buf); err != nil {
			return nil, fmt.Errorf("sampled /topk: %w", err)
		}
		if err := json.Unmarshal(buf.Bytes(), &out[i]); err != nil {
			return nil, fmt.Errorf("sampled /topk answer: %w", err)
		}
	}
	return out, nil
}

// referenceAnswers ranks reqs on an in-process engine.
func referenceAnswers(eng linkpred.Engine, reqs []topkReq) ([][]linkpred.Candidate, error) {
	out := make([][]linkpred.Candidate, len(reqs))
	for i, r := range reqs {
		got, err := eng.TopK(r.measure, r.u, r.cands, topK)
		if err != nil {
			return nil, err
		}
		out[i] = got
	}
	return out, nil
}

// sameAnswers reports the first request whose server answer differs
// from the reference ranking, or nil.
func sameAnswers(reqs []topkReq, got []topkAnswer, want [][]linkpred.Candidate) error {
	for i := range reqs {
		g, w := got[i].Candidates, want[i]
		ok := len(g) == len(w)
		for j := 0; ok && j < len(g); j++ {
			ok = g[j].V == w[j].V && g[j].Score == w[j].Score
		}
		if !ok {
			return fmt.Errorf("/topk u=%d %s: server answer differs from the reference engine", reqs[i].u, reqs[i].measure)
		}
	}
	return nil
}

// exactMeasure maps a library measure onto internal/exact's.
func exactMeasure(m linkpred.Measure) (exact.Measure, error) {
	for em := exact.MeasureJaccard; em <= exact.MeasureCosine; em++ {
		if em.String() == m.String() {
			return em, nil
		}
	}
	return 0, fmt.Errorf("no exact measure for %s", m)
}

// exactScores returns, per request, the exact score of every candidate.
func exactScores(edges []stream.Edge, reqs []topkReq) ([][]float64, error) {
	g := graph.New()
	for _, e := range edges {
		g.AddEdge(e.U, e.V)
	}
	out := make([][]float64, len(reqs))
	for i, r := range reqs {
		em, err := exactMeasure(r.measure)
		if err != nil {
			return nil, err
		}
		out[i] = make([]float64, len(r.cands))
		for j, v := range r.cands {
			out[i][j] = exact.Score(g, em, r.u, v)
		}
	}
	return out, nil
}

// accuracy compares server answers with exact scores over the same
// candidates. recall@10 counts a returned vertex as a hit when its
// exact score is positive and at least the exact 10th-best (ties at
// the cut all count), over min(10, candidates with a positive score);
// requests without a positive candidate are skipped. The relative
// error is the median of |estimate − exact| / exact over returned
// vertices with a positive exact score (a mean would follow the few
// hub pairs whose estimates are far off).
func accuracy(reqs []topkReq, exactS [][]float64, got []topkAnswer) (recall, relErr float64, err error) {
	var recSum float64
	var recN int
	var errs []float64
	for i, r := range reqs {
		byV := make(map[uint64]float64, len(r.cands))
		var pos []float64
		for j, v := range r.cands {
			byV[v] = exactS[i][j]
			if exactS[i][j] > 0 {
				pos = append(pos, exactS[i][j])
			}
		}
		if len(pos) == 0 {
			continue
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(pos)))
		cut := pos[min(topK, len(pos))-1]
		hits := 0
		for _, c := range got[i].Candidates {
			ex := byV[c.V]
			if ex > 0 && ex >= cut {
				hits++
			}
			if ex > 0 {
				errs = append(errs, math.Abs(c.Score-ex)/ex)
			}
		}
		recSum += float64(min(hits, topK, len(pos))) / float64(min(topK, len(pos)))
		recN++
	}
	if recN == 0 || len(errs) == 0 {
		return 0, 0, fmt.Errorf("accuracy sample has no candidate with a positive exact score")
	}
	return recSum / float64(recN), median(errs), nil
}
