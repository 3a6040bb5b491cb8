package bench

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"time"

	linkpred "linkpred"
	"linkpred/internal/core"
	"linkpred/internal/gen"
	"linkpred/internal/server"
	"linkpred/internal/stream"
	"linkpred/internal/wal"
)

func init() {
	register(Experiment{ID: "e20", Title: "E20: batched parallel ingest scaling", Kind: "figure", Run: runE20})
}

// runE20 measures the batched ingest pipeline against per-edge ingest on
// the sharded store: edges/second at 1, 2, 4, … writer goroutines (up to
// RunConfig.Parallel), per-edge vs batched (RunConfig.Batch edges per
// IngestBatch call). The workload is the raw duplicate-preserving
// coauthor stream — papers emit author-pair cliques and prolific pairs
// recur, which is exactly the locality the batch pipeline exploits
// (one hash vector and one vertex-map lookup per distinct endpoint per
// batch, duplicate edges folded into arrival multiplicities, one lock
// acquisition per shard per batch).
func runE20(cfg RunConfig) (*Table, error) {
	src, err := gen.Open(gen.DatasetCoauthor, cfg.scale(), cfg.Seed)
	if err != nil {
		return nil, err
	}
	edges, err := stream.Collect(src)
	if err != nil {
		return nil, err
	}
	const k = 64
	const nShards = 32
	batch := cfg.batch()
	t := &Table{
		Title:   fmt.Sprintf("E20: batched parallel ingest over %d raw coauthor edges (k=%d, %d shards, batch=%d)", len(edges), k, nShards, batch),
		Columns: []string{"mode", "goroutines", "ns_per_edge", "edges_per_sec", "speedup_vs_per_edge"},
		Notes: []string{
			"speedup compares batched against this build's per-edge path at the same goroutine count; the per-edge path already hashes outside the lock",
			"expected shape: batched well ahead at every goroutine count on duplicate-heavy streams; both modes flat in goroutines on a single-core host",
		},
	}
	// Each configuration is measured on a fresh store; the faster of two
	// passes is reported, which shakes out allocator warm-up and GC
	// growth noise from the single-pass numbers.
	measureOnce := func(mode string, g int) (float64, error) {
		s, err := core.NewSharded(core.Config{K: k, Seed: cfg.Seed}, nShards)
		if err != nil {
			return 0, err
		}
		switch mode {
		case "pipelined": // forced: g shard owners even on a single-proc host
			s.StartPipeline(g, 0)
			defer s.StopPipeline()
		case "pipelined-auto": // one owner per processor; synchronous fallback at GOMAXPROCS=1
			s.StartPipeline(0, 0)
			defer s.StopPipeline()
		}
		per := len(edges) / g
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < g; w++ {
			lo, hi := w*per, (w+1)*per
			if w == g-1 {
				hi = len(edges)
			}
			wg.Add(1)
			go func(chunk []stream.Edge) {
				defer wg.Done()
				if mode == "per-edge" {
					for _, e := range chunk {
						s.ProcessEdge(e)
					}
					return
				}
				for lo := 0; lo < len(chunk); lo += batch {
					hi := lo + batch
					if hi > len(chunk) {
						hi = len(chunk)
					}
					s.IngestBatch(chunk[lo:hi], nil)
				}
			}(edges[lo:hi])
		}
		wg.Wait()
		return float64(time.Since(start).Nanoseconds()) / float64(len(edges)), nil
	}
	measure := func(mode string, g int) (float64, error) {
		best, err := measureOnce(mode, g)
		if err != nil {
			return 0, err
		}
		again, err := measureOnce(mode, g)
		if err != nil {
			return 0, err
		}
		if again < best {
			best = again
		}
		return best, nil
	}
	lastBase := 0.0
	for g := 1; g <= cfg.parallel(); g *= 2 {
		base, err := measure("per-edge", g)
		if err != nil {
			return nil, err
		}
		lastBase = base
		bat, err := measure("batched", g)
		if err != nil {
			return nil, err
		}
		t.AddRow("per-edge", g, base, 1e9/base, 1.0)
		t.AddRow("batched", g, bat, 1e9/bat, base/bat)
		pipe, err := measure("pipelined", g)
		if err != nil {
			return nil, err
		}
		t.AddRow("pipelined", g, pipe, 1e9/pipe, base/pipe)
	}
	auto, err := measure("pipelined-auto", cfg.parallel())
	if err != nil {
		return nil, err
	}
	t.AddRow("pipelined-auto", cfg.parallel(), auto, 1e9/auto, lastBase/auto)
	t.Notes = append(t.Notes,
		"pipelined rows force one shard-owner apply goroutine per producer (StartIngestPipeline(g)); producers only parse+hash+group and publish to per-owner rings",
		"pipelined-auto sizes owners to GOMAXPROCS and degrades to the synchronous batched path on a single-proc host, so its row should match batched there")

	// The server's two /ingest wire formats head-to-head, end to end over
	// a local socket: text lines parsed per edge vs binary crc/len frames
	// applied batch-per-frame with no text parsing. Best of two passes,
	// like the in-process rows; the speedup column compares binary
	// against text.
	measureHTTP := func(binary bool) (float64, error) {
		best := 0.0
		for pass := 0; pass < 2; pass++ {
			ns, err := measureHTTPIngest(edges, batch, binary)
			if err != nil {
				return 0, err
			}
			if pass == 0 || ns < best {
				best = ns
			}
		}
		return best, nil
	}
	httpText, err := measureHTTP(false)
	if err != nil {
		return nil, err
	}
	httpBin, err := measureHTTP(true)
	if err != nil {
		return nil, err
	}
	t.AddRow("http-text", 1, httpText, 1e9/httpText, 1.0)
	t.AddRow("http-binary", 1, httpBin, 1e9/httpBin, httpText/httpBin)
	t.Notes = append(t.Notes,
		"http rows POST the same stream to a live server's /ingest: text lines vs application/x-lp-edges binary frames (one frame per batch); their speedup column compares binary against text")
	return t, nil
}

// measureHTTPIngest POSTs the edges to a fresh server over a loopback
// socket in the chosen wire format and returns ns/edge end to end.
func measureHTTPIngest(edges []stream.Edge, batch int, binary bool) (float64, error) {
	pred, err := linkpred.NewConcurrent(linkpred.Config{K: 64, Seed: 1}, 32)
	if err != nil {
		return 0, err
	}
	ts := httptest.NewServer(server.New(pred))
	defer ts.Close()

	pr, pw := io.Pipe()
	go func() {
		bw := bufio.NewWriterSize(pw, 1<<16)
		var ferr error
		if binary {
			var frame []byte
			for lo := 0; lo < len(edges) && ferr == nil; lo += batch {
				hi := lo + batch
				if hi > len(edges) {
					hi = len(edges)
				}
				if frame, ferr = wal.EncodeFrame(frame[:0], wal.KindEdge, edges[lo:hi]); ferr == nil {
					_, ferr = bw.Write(frame)
				}
			}
		} else {
			var line []byte
			for _, e := range edges {
				line = strconv.AppendUint(line[:0], e.U, 10)
				line = append(line, ' ')
				line = strconv.AppendUint(line, e.V, 10)
				line = append(line, ' ')
				line = strconv.AppendInt(line, e.T, 10)
				line = append(line, '\n')
				if _, ferr = bw.Write(line); ferr != nil {
					break
				}
			}
		}
		if ferr == nil {
			ferr = bw.Flush()
		}
		pw.CloseWithError(ferr)
	}()

	contentType := "text/plain"
	if binary {
		contentType = wal.FrameContentType
	}
	start := time.Now()
	resp, err := http.Post(ts.URL+"/ingest", contentType, pr)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("http ingest (binary=%v): status %d", binary, resp.StatusCode)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(len(edges)), nil
}
