package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"linkpred/internal/wal"
)

// reqTimeout bounds one request. A request that fails — refused,
// errored, or timed out — is recorded with this latency, so it misses
// every latency limit.
const reqTimeout = 30 * time.Second

// maxConns is the most connections (and load goroutines) the benchmark
// opens at once: one per core of the 2-core host it was sized on.
const maxConns = 2

// newClient returns an HTTP client that keeps at most conns loopback
// connections alive.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: reqTimeout,
		Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		},
	}
}

// recorder collects request outcomes by class, and the seconds of the
// timed phases they ran in (quiet.go). Safe for concurrent use.
type recorder struct {
	mu        sync.Mutex
	reqs      map[string][]request     // class → requests
	windows   map[string][]stealWindow // phase group → timed seconds
	lag       []float64                // generator lateness in ms
	attempted int64
	failed    int64
	firstErr  error
}

// request is one recorded request.
type request struct {
	done  time.Time // when its response had been read
	ms    float64   // latency from its due time
	units int       // edges acknowledged (ingest) or 1 (/topk)
}

func newRecorder() *recorder {
	return &recorder{reqs: map[string][]request{}, windows: map[string][]stealWindow{}}
}

// add records one request: due is when it should have been sent, sent
// when it was, done when its response had been read; units is what it
// counts for in its class's rate.
func (r *recorder) add(class string, due, sent, done time.Time, units int, err error) {
	lat := done.Sub(due)
	if err != nil {
		lat = reqTimeout
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = fmt.Errorf("%s request: %w", class, err)
		}
	}
	r.reqs[class] = append(r.reqs[class], request{done: done, ms: ms(lat), units: units})
	r.lag = append(r.lag, ms(sent.Sub(due)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, or NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// median returns the middle value of xs (the mean of the middle two
// for an even count), or NaN for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// ingestResp is the POST /ingest answer.
type ingestResp struct {
	Ingested int    `json:"ingested"`
	Error    string `json:"error"`
}

// postIngest sends one /ingest body (binary frames when binary is set,
// text lines otherwise) and returns the edges the server acknowledged.
func postIngest(c *http.Client, base string, body []byte, binary bool) (int, error) {
	req, err := http.NewRequest(http.MethodPost, base+"/ingest", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if binary {
		req.Header.Set("Content-Type", wal.FrameContentType)
	} else {
		req.Header.Set("Content-Type", "text/plain")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var ir ingestResp
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		return 0, fmt.Errorf("ingest answer: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("ingest status %d: %s", resp.StatusCode, ir.Error)
	}
	return ir.Ingested, nil
}

// getBody sends one GET and returns the body of a 200 answer.
func getBody(c *http.Client, url string, buf *bytes.Buffer) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := io.Copy(buf, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	return nil
}

// topkAnswer is the GET /topk answer.
type topkAnswer struct {
	Candidates []struct {
		V     uint64  `json:"v"`
		Score float64 `json:"score"`
	} `json:"candidates"`
}

// ingestPhase sends the bodies in order, each once, on one closed-loop
// connection until they run out or stop reports true, and returns the
// acknowledged edge count. One connection, not two: with two ingest
// requests in flight on the 2-core host, p50 and p90 moved by 10% or
// more between runs that saw no steal; on one connection they held
// within 5%.
func ingestPhase(c *http.Client, base string, bodies [][]byte, perBody []int, stop func() bool, rec *recorder) int64 {
	var acked int64
	due := time.Now()
	for i := 0; i < len(bodies) && !stop(); i++ {
		sent := time.Now()
		n, err := postIngest(c, base, bodies[i], true)
		if err == nil && n != perBody[i] {
			err = fmt.Errorf("acknowledged %d of %d edges", n, perBody[i])
		}
		done := time.Now()
		rec.add("ingest", due, sent, done, n, err)
		acked += int64(n)
		due = done
	}
	return acked
}

// topkPhase sends /topk on one closed-loop connection, cycling through
// the request pool until stop reports true.
func topkPhase(c *http.Client, base string, pool []topkReq, stop func() bool, rec *recorder) {
	var buf bytes.Buffer
	due := time.Now()
	for i := 0; !stop(); i = (i + 1) % len(pool) {
		sent := time.Now()
		err := getBody(c, base+pool[i].path, &buf)
		done := time.Now()
		rec.add(topkClass(pool[i]), due, sent, done, 1, err)
		due = done
	}
}

func topkClass(r topkReq) string {
	if r.big {
		return "topk_10k"
	}
	return "topk_1k"
}

// edgeCounts returns the number of edges in each body of a split.
func edgeCounts(total, per int) []int {
	var out []int
	for lo := 0; lo < total; lo += per {
		out = append(out, min(per, total-lo))
	}
	return out
}
