package main

import (
	"fmt"
	"sort"
	"strconv"

	linkpred "linkpred"
	"linkpred/internal/gen"
	"linkpred/internal/rng"
	"linkpred/internal/stream"
	"linkpred/internal/wal"
)

// Request shapes, fixed by the workload definitions in README.md.
const (
	edgesPerFrameReq = 1024 // edges per binary POST /ingest
	edgesPerFrame    = 256  // edges per frame inside it
	edgesPerTextReq  = 500  // edges per text POST /ingest (mixed)
	walRecordEdges   = 256  // edges per WAL record the benchmark writes, as binary ingest would
	topkPool         = 1024 // distinct /topk requests a run cycles through
	bigEvery         = 8    // every 8th /topk request has the large candidate list
	smallCands       = 1000
	bigCands         = 10000
	topK             = 10
)

// genEdges materializes one of the generator's stand-in streams.
func genEdges(d gen.Dataset, scale gen.Scale, seed uint64) ([]stream.Edge, error) {
	src, err := gen.Open(d, scale, seed)
	if err != nil {
		return nil, err
	}
	return stream.Collect(src)
}

// frameBodies encodes edges as binary POST /ingest bodies of
// edgesPerFrameReq edges, each body a run of edgesPerFrame-edge frames.
func frameBodies(edges []stream.Edge) ([][]byte, error) {
	var bodies [][]byte
	for lo := 0; lo < len(edges); lo += edgesPerFrameReq {
		hi := min(lo+edgesPerFrameReq, len(edges))
		var body []byte
		for f := lo; f < hi; f += edgesPerFrame {
			var err error
			body, err = wal.EncodeFrame(body, wal.KindEdge, edges[f:min(f+edgesPerFrame, hi)])
			if err != nil {
				return nil, err
			}
		}
		bodies = append(bodies, body)
	}
	return bodies, nil
}

// textBodies encodes edges as "u v t" lines, per edges per body.
func textBodies(edges []stream.Edge, per int) [][]byte {
	var bodies [][]byte
	for lo := 0; lo < len(edges); lo += per {
		var b []byte
		for _, e := range edges[lo:min(lo+per, len(edges))] {
			b = strconv.AppendUint(b, e.U, 10)
			b = append(b, ' ')
			b = strconv.AppendUint(b, e.V, 10)
			b = append(b, ' ')
			b = strconv.AppendInt(b, e.T, 10)
			b = append(b, '\n')
		}
		bodies = append(bodies, b)
	}
	return bodies
}

// writeWAL writes edges as a fresh write-ahead log in dir, in
// walRecordEdges-edge records — what a server that ingested them over
// binary frames would have left behind.
func writeWAL(dir string, edges []stream.Edge) error {
	w, err := wal.Open(dir, wal.Options{Fsync: wal.FsyncNever})
	if err != nil {
		return err
	}
	for lo := 0; lo < len(edges); lo += walRecordEdges {
		if _, err := w.Append(wal.KindEdge, edges[lo:min(lo+walRecordEdges, len(edges))]); err != nil {
			w.Close()
			return err
		}
	}
	return w.Close()
}

// toLinkpred converts stream edges to the library's edge type.
func toLinkpred(edges []stream.Edge) []linkpred.Edge {
	out := make([]linkpred.Edge, len(edges))
	for i, e := range edges {
		out[i] = linkpred.Edge{U: e.U, V: e.V, T: e.T}
	}
	return out
}

// adjacency is a compressed sorted neighbor list per vertex, used to
// draw friend-of-friend candidates without map iteration (so draws are
// reproducible from the seed).
type adjacency struct {
	off  []int // off[u]..off[u+1] indexes nbr; vertex ids are dense generator ids
	nbr  []uint64
	vert []uint64 // vertices with at least one neighbor, ascending
}

func newAdjacency(edges []stream.Edge) (*adjacency, error) {
	var maxID uint64
	for _, e := range edges {
		maxID = max(maxID, e.U, e.V)
	}
	if maxID >= 1<<26 {
		return nil, fmt.Errorf("vertex id %d too large for a dense adjacency", maxID)
	}
	n := int(maxID) + 1
	deg := make([]int, n+1)
	for _, e := range edges {
		if e.U != e.V {
			deg[e.U]++
			deg[e.V]++
		}
	}
	a := &adjacency{off: make([]int, n+1)}
	for u := 0; u < n; u++ {
		a.off[u+1] = a.off[u] + deg[u]
	}
	fill := append([]int(nil), a.off[:n]...)
	raw := make([]uint64, a.off[n])
	for _, e := range edges {
		if e.U != e.V {
			raw[fill[e.U]] = e.V
			fill[e.U]++
			raw[fill[e.V]] = e.U
			fill[e.V]++
		}
	}
	// Sort and deduplicate each list in place, compacting into nbr.
	a.nbr = raw[:0]
	start := 0
	for u := 0; u < n; u++ {
		seg := raw[start:a.off[u+1]]
		start = a.off[u+1]
		sort.Slice(seg, func(i, j int) bool { return seg[i] < seg[j] })
		a.off[u] = len(a.nbr)
		for i, v := range seg {
			if i == 0 || v != seg[i-1] {
				a.nbr = append(a.nbr, v)
			}
		}
		if len(a.nbr) > a.off[u] {
			a.vert = append(a.vert, uint64(u))
		}
	}
	a.off[n] = len(a.nbr)
	return a, nil
}

func (a *adjacency) neighbors(u uint64) []uint64 {
	if int(u)+1 >= len(a.off) {
		return nil
	}
	return a.nbr[a.off[u]:a.off[u+1]]
}

// topkReq is one GET /topk request.
type topkReq struct {
	u       uint64
	measure linkpred.Measure
	cands   []uint64
	big     bool
	path    string
}

// topkRequests draws n /topk requests: sources uniform over known
// vertices, every bigEvery-th request with bigCands candidates
// (smallCands otherwise), and measures cycling through all six within
// each of the two list sizes. Half of a
// candidate list is friends of friends of the source (random two-step
// walks), the rest uniform known vertices — the shape of a recommender
// re-ranking a candidate set.
func topkRequests(a *adjacency, n int, seed uint64) []topkReq {
	x := rng.NewXoshiro256(seed ^ 0x746f706b)
	reqs := make([]topkReq, n)
	var perClass [2]int // requests drawn so far with the small and the big list
	for i := range reqs {
		r := &reqs[i]
		r.u = a.vert[x.Intn(len(a.vert))]
		r.big = i%bigEvery == bigEvery-1
		class, want := 0, smallCands
		if r.big {
			class, want = 1, bigCands
		}
		r.measure = linkpred.AllMeasures[perClass[class]%len(linkpred.AllMeasures)]
		perClass[class]++
		seen := map[uint64]bool{r.u: true}
		add := func(v uint64) {
			if !seen[v] {
				seen[v] = true
				r.cands = append(r.cands, v)
			}
		}
		for tries := 0; len(r.cands) < want/2 && tries < 4*want; tries++ {
			n1 := a.neighbors(r.u)
			if len(n1) == 0 {
				break
			}
			n2 := a.neighbors(n1[x.Intn(len(n1))])
			add(n2[x.Intn(len(n2))])
		}
		for len(r.cands) < want {
			add(a.vert[x.Intn(len(a.vert))])
		}
		p := make([]byte, 0, 64+8*len(r.cands))
		p = append(p, "/topk?k="...)
		p = strconv.AppendInt(p, topK, 10)
		p = append(p, "&measure="...)
		p = append(p, r.measure.String()...)
		p = append(p, "&u="...)
		p = strconv.AppendUint(p, r.u, 10)
		p = append(p, "&candidates="...)
		for j, c := range r.cands {
			if j > 0 {
				p = append(p, ',')
			}
			p = strconv.AppendUint(p, c, 10)
		}
		r.path = string(p)
	}
	return reqs
}

// sample returns the first n requests of the pool with the small
// candidate list; measures cycle through them, so all six appear
// equally.
func sample(pool []topkReq, n int) []topkReq {
	var out []topkReq
	for _, r := range pool {
		if !r.big && len(out) < n {
			out = append(out, r)
		}
	}
	return out
}
