package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	linkpred "linkpred"
	"linkpred/internal/monitor"
	"linkpred/internal/server"
	"linkpred/internal/stream"
	"linkpred/internal/wal"
)

// The traced run feeds the workload's inputs in process through each
// layer's public functions, in the order the server calls them, with a
// span around every call. Spans are recorded from the benchmark's own
// code only; the program carries no tracing.

// span is one timed call. Spans of one request share Req, the id of
// the request's root span; Parent is -1 at a root.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory. A nil tracer records nothing, which is
// how the untraced comparison run uses the same code.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.spans))
	req := id
	if parent >= 0 {
		req = t.spans[parent].Req
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int32) {
	if t != nil {
		t.spans[id].End = int64(time.Since(t.t0))
	}
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part its children cover.
func (t *tracer) selfTimes() map[string]float64 {
	self := map[string]float64{}
	for _, s := range t.spans {
		d := float64(s.End - s.Start)
		self[s.Name] += d
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Name] -= d
		}
	}
	return self
}

// durations returns every duration (ns) of spans with the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// rig is the server's durable ingest stack, built from the same parts
// with lpserver's defaults: engine with the shard-owner pipeline, WAL
// with fsync interval, stream monitor.
type rig struct {
	eng   linkpred.Engine
	w     *wal.WAL
	d     *wal.Durable
	mon   *monitor.StreamMonitor
	monMu sync.Mutex
}

func newRig(dir string) (*rig, error) {
	eng, err := linkpred.NewEngine(serverSpec(0))
	if err != nil {
		return nil, err
	}
	w, err := wal.Open(dir, wal.Options{Fsync: wal.FsyncInterval})
	if err != nil {
		return nil, err
	}
	mon, err := monitor.New(monitor.Config{Seed: 42})
	if err != nil {
		w.Close()
		return nil, err
	}
	return &rig{eng: eng, w: w, d: wal.NewDurable(w, dir, wal.KindEdge, eng.Save), mon: mon}, nil
}

func (r *rig) close() error {
	if pl, ok := linkpred.PipelinerOf(r.eng); ok {
		pl.StopIngestPipeline()
	}
	return r.w.Close()
}

// ingest replays binary /ingest bodies through the calls the server's
// durable frame path makes, in its order: decode a frame, log it, then
// apply it to the engine and the monitor. It returns the wall time.
func (r *rig) ingest(t *tracer, bodies [][]byte) (time.Duration, error) {
	buf := make([]linkpred.Edge, 0, edgesPerFrame)
	start := time.Now()
	for _, body := range bodies {
		req := t.begin("server.request", -1)
		fr := wal.NewFrameReader(bytes.NewReader(body))
		for {
			s := t.begin("wal.frame_decode", req)
			_, frame, edges, err := fr.Next()
			t.end(s)
			if err == io.EOF {
				break
			}
			if err != nil {
				return 0, err
			}
			s = t.begin("wal.ingest_frame", req)
			err = r.d.IngestFrame(frame, edges, func(batch []stream.Edge) {
				a := t.begin("server.apply", s)
				buf = buf[:0]
				for _, e := range batch {
					buf = append(buf, linkpred.Edge{U: e.U, V: e.V, T: e.T})
				}
				c := t.begin("core.observe", a)
				r.eng.ObserveEdges(buf)
				t.end(c)
				m := t.begin("monitor.process", a)
				r.monMu.Lock()
				for _, e := range batch {
					r.mon.ProcessEdge(e)
				}
				r.monMu.Unlock()
				t.end(m)
				t.end(a)
			})
			t.end(s)
			if err != nil {
				return 0, err
			}
		}
		t.end(req)
	}
	return time.Since(start), nil
}

// traceLayers runs the traced in-process passes and returns every
// per-layer metric except the server counts and the generator lag,
// which come from the server run.
func traceLayers(cfg *config, in *traceInput) (metrics, error) {
	m := metrics{}
	tr := &tracer{t0: time.Now()}
	edges := float64(in.edges)
	runtime.GC()

	// 1. Traced durable ingest.
	logDir := filepath.Join(cfg.workdir, "trace-wal")
	r, err := newRig(logDir)
	if err != nil {
		return nil, err
	}
	if _, err := r.ingest(tr, in.frames); err != nil {
		return nil, err
	}
	m.set("wal.bytes_per_edge", "B", float64(r.w.Stats().Bytes)/edges)
	m.set("core.memory_bytes_per_vertex", "B", float64(r.eng.MemoryBytes())/float64(r.eng.NumVertices()))
	if err := r.close(); err != nil {
		return nil, err
	}
	r = nil
	runtime.GC()

	// 2. The same ingest untraced, for the tracing overhead.
	plainDir := filepath.Join(cfg.workdir, "plain-wal")
	r, err = newRig(plainDir)
	if err != nil {
		return nil, err
	}
	plain, err := r.ingest(nil, in.frames)
	if err != nil {
		return nil, err
	}
	if err := r.close(); err != nil {
		return nil, err
	}
	r = nil
	os.RemoveAll(plainDir)
	runtime.GC()

	// 3. Text parsing.
	textEdges := 0
	for _, body := range in.text {
		s := tr.begin("stream.text_parse", -1)
		tx := stream.NewTextReader(bytes.NewReader(body))
		for {
			_, err := tx.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, fmt.Errorf("parse text body: %w", err)
			}
			textEdges++
		}
		tr.end(s)
	}

	// 4. Batched recovery of the log written in 1, as lpserver boots:
	// async publish to the pipeline, then flush.
	rec, err := linkpred.NewEngine(serverSpec(0))
	if err != nil {
		return nil, err
	}
	s := tr.begin("wal.recover", -1)
	ai, ok := linkpred.AsyncIngesterOf(rec)
	if !ok {
		return nil, fmt.Errorf("engine mode %s has no async ingest", linkpred.ModeOf(rec))
	}
	_, err = wal.RecoverBatched(nil, logDir, func(io.Reader) error {
		return fmt.Errorf("unexpected snapshot in %s", logDir)
	}, func(_ wal.Kind, batch []stream.Edge) error {
		ai.ObserveEdgesAsync(toLinkpred(batch))
		return nil
	}, wal.BatchedReplayOptions{})
	ai.FlushIngest()
	tr.end(s)
	if err != nil {
		return nil, err
	}
	if pl, ok := linkpred.PipelinerOf(rec); ok {
		pl.StopIngestPipeline()
	}

	// 5. Engine queries: every measure on the same 1k-candidate sample.
	qs := sample(in.pool, 48)
	for _, meas := range linkpred.AllMeasures {
		sb, tk := "core.scorebatch."+meas.String(), "core.topk."+meas.String()
		for _, q := range qs {
			s := tr.begin(sb, -1)
			_, err := rec.ScoreBatch(meas, q.u, q.cands)
			tr.end(s)
			if err != nil {
				return nil, err
			}
			s = tr.begin(tk, -1)
			_, err = rec.TopK(meas, q.u, q.cands, topK)
			tr.end(s)
			if err != nil {
				return nil, err
			}
		}
		m.set("core.scorebatch_ns_per_cand."+meas.String(), "ns", median(tr.durations(sb))/smallCands)
		m.set("core.topk_us."+meas.String(), "us", median(tr.durations(tk))/1e3)
	}
	rec = nil
	runtime.GC()

	// 6. The server's handler on a recorder (no socket): binary ingest,
	// then /topk.
	serveDir := filepath.Join(cfg.workdir, "serve-wal")
	r, err = newRig(serveDir)
	if err != nil {
		return nil, err
	}
	srv := server.NewWithOptions(r.eng, server.Options{
		MaxBodyBytes: 64 << 20,
		Monitor:      r.mon,
		Durability:   r.d,
		Admission:    server.AdmissionConfig{QueueDepth: 64},
	})
	var ms0, ms1, ms2 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for _, body := range in.frames {
		req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body))
		req.Header.Set("Content-Type", wal.FrameContentType)
		w := httptest.NewRecorder()
		s := tr.begin("server.serve_ingest", -1)
		srv.ServeHTTP(w, req)
		tr.end(s)
		if w.Code != http.StatusOK {
			return nil, fmt.Errorf("in-process /ingest: status %d: %s", w.Code, w.Body.String())
		}
	}
	runtime.ReadMemStats(&ms1)
	served := sample(in.pool, 2*len(qs))
	for _, q := range served {
		req := httptest.NewRequest(http.MethodGet, q.path, nil)
		w := httptest.NewRecorder()
		s := tr.begin("server.serve_topk", -1)
		srv.ServeHTTP(w, req)
		tr.end(s)
		if w.Code != http.StatusOK {
			return nil, fmt.Errorf("in-process /topk: status %d: %s", w.Code, w.Body.String())
		}
	}
	runtime.ReadMemStats(&ms2)
	if err := r.close(); err != nil {
		return nil, err
	}
	r = nil
	m.set("runtime.alloc_bytes_per_edge", "B", float64(ms1.TotalAlloc-ms0.TotalAlloc)/edges)
	m.set("runtime.alloc_bytes_per_query", "B", float64(ms2.TotalAlloc-ms1.TotalAlloc)/float64(len(served)))
	m.set("runtime.gc_cycles", "count", float64(ms2.NumGC-ms0.NumGC))
	m.set("server.topk_serve_us", "us", median(tr.durations("server.serve_topk"))/1e3)

	// Per-edge accounting of the ingest path.
	self := tr.selfTimes()
	sum := func(xs []float64) float64 {
		t := 0.0
		for _, x := range xs {
			t += x
		}
		return t
	}
	serve := sum(tr.durations("server.serve_ingest")) / edges
	traced := sum(tr.durations("server.request")) / edges
	untraced := float64(plain) / edges
	serverSelf := serve - untraced
	m.set("wal.frame_decode_ns_per_edge", "ns", self["wal.frame_decode"]/edges)
	m.set("wal.append_ns_per_edge", "ns", self["wal.ingest_frame"]/edges)
	m.set("core.observe_ns_per_edge", "ns", self["core.observe"]/edges)
	m.set("monitor.process_ns_per_edge", "ns", self["monitor.process"]/edges)
	m.set("stream.text_parse_ns_per_edge", "ns", self["stream.text_parse"]/float64(textEdges))
	m.set("wal.recover_s", "s", self["wal.recover"]/1e9)
	m.set("server.ingest_serve_ns_per_edge", "ns", serve)
	m.set("server.ingest_self_ns_per_edge", "ns", serverSelf)
	m.set("trace.ingest_ns_per_edge", "ns", traced+serverSelf)
	m.set("trace.ingest_unaccounted_ns_per_edge", "ns", (self["server.request"]+self["server.apply"])/edges)
	m.set("trace.overhead_frac", "ratio", traced/untraced-1)

	if err := tr.write(filepath.Join(filepath.Dir(cfg.workdir), "trace-"+cfg.workload+".jsonl")); err != nil {
		return nil, err
	}
	return m, nil
}
