package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	linkpred "linkpred"
)

// blockingEngine wraps a real engine but parks every ScoreBatchCtx on a
// gate, so tests can hold admission slots occupied for as long as they
// need. It deliberately ignores ctx: the request blocks regardless of
// its deadline — exactly the slow-request convoy admission control
// exists to shed.
type blockingEngine struct {
	linkpred.Engine
	entered chan struct{} // receives one token per ScoreBatchCtx entry
	release chan struct{} // closed to let the parked calls finish
}

func (b *blockingEngine) ScoreBatchCtx(_ context.Context, m linkpred.Measure, u uint64, cands []uint64) ([]float64, error) {
	select {
	case b.entered <- struct{}{}:
	default:
	}
	<-b.release
	return b.Engine.ScoreBatch(m, u, cands)
}

// ctxBlockingEngine parks ScoreBatchCtx and TopKCtx until the request
// context is done — the cancellable-engine shape, for exercising the
// 504 path.
type ctxBlockingEngine struct {
	linkpred.Engine
}

func (b *ctxBlockingEngine) ScoreBatchCtx(ctx context.Context, m linkpred.Measure, u uint64, cands []uint64) ([]float64, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

func (b *ctxBlockingEngine) TopKCtx(ctx context.Context, m linkpred.Measure, u uint64, cands []uint64, k int) ([]linkpred.Candidate, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

func newBaseEngine(t *testing.T) linkpred.Engine {
	t.Helper()
	eng, err := linkpred.NewEngine(linkpred.EngineSpec{
		Mode:   linkpred.ModeSingle,
		Config: linkpred.Config{K: 16, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

const scorebatchBody = `{"measure":"jaccard","pairs":[{"u":1,"v":2}]}`

func postScoreBatch(t *testing.T, ts *httptest.Server, headers map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/scorebatch", strings.NewReader(scorebatchBody))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestAdmissionShedsWithRetryAfter saturates a MaxInFlight=1 /scorebatch
// with one executing and one queued request: the third arrival must be
// shed immediately with 429 + Retry-After, and the admitted requests
// must still complete once the engine unblocks.
func TestAdmissionShedsWithRetryAfter(t *testing.T) {
	be := &blockingEngine{
		Engine:  newBaseEngine(t),
		entered: make(chan struct{}, 8),
		release: make(chan struct{}),
	}
	srv := NewWithOptions(be, Options{Admission: AdmissionConfig{MaxInFlight: 1, QueueDepth: 1}})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	done := make(chan int, 2)
	// Request 1: admitted, parks inside the engine.
	go func() {
		resp := postScoreBatch(t, ts, nil)
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	select {
	case <-be.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("first request never reached the engine")
	}
	// Request 2: fills the wait queue.
	go func() {
		resp := postScoreBatch(t, ts, nil)
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	// Wait until it is actually queued (inflight full, queue occupied).
	deadline := time.Now().Add(5 * time.Second)
	for srv.admission["scorebatch"].waiting() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Request 3: queue full — shed, with a retry hint.
	resp := postScoreBatch(t, ts, nil)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third request status = %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("shed response missing Retry-After")
	}

	// Unblock: both admitted requests complete successfully.
	close(be.release)
	for i := 0; i < 2; i++ {
		select {
		case st := <-done:
			if st != http.StatusOK {
				t.Fatalf("admitted request status = %d, want 200", st)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("admitted request did not complete after release")
		}
	}

	// The shed shows up in the resilience metrics.
	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	if err := json.NewDecoder(mresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	res := snap["predictor"].(map[string]any)["resilience"].(map[string]any)
	adm := res["admission"].(map[string]any)
	if shed := adm["shed_queue_full"].(float64); shed < 1 {
		t.Fatalf("resilience.admission.shed_queue_full = %v, want >= 1", shed)
	}
}

// TestAdmissionShedsExpiredQueueWait: a request whose deadline fires
// while it waits for an admission slot is shed with 429 — it never ran,
// so it is retryable, unlike a 504 that may have partially executed.
func TestAdmissionShedsExpiredQueueWait(t *testing.T) {
	be := &blockingEngine{
		Engine:  newBaseEngine(t),
		entered: make(chan struct{}, 8),
		release: make(chan struct{}),
	}
	srv := NewWithOptions(be, Options{Admission: AdmissionConfig{MaxInFlight: 1, QueueDepth: 8}})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer close(be.release)

	go func() {
		resp := postScoreBatch(t, ts, nil)
		resp.Body.Close()
	}()
	select {
	case <-be.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("first request never reached the engine")
	}

	resp := postScoreBatch(t, ts, map[string]string{"X-Deadline-Ms": "50"})
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("expired-in-queue status = %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("expired-in-queue response missing Retry-After")
	}
}

// TestDeadlineExpiresMidRequest504: with a context-aware engine, a
// deadline that fires while the request executes surfaces as 504, and
// the chunk workers stop (the stub returns as soon as ctx fires — the
// assertion is that the handler maps the context error, not that it
// hangs).
func TestDeadlineExpiresMidRequest504(t *testing.T) {
	srv := NewWithOptions(&ctxBlockingEngine{Engine: newBaseEngine(t)},
		Options{Admission: AdmissionConfig{DefaultDeadline: 50 * time.Millisecond}})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	start := time.Now()
	resp := postScoreBatch(t, ts, nil)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("mid-request expiry status = %d, want 504 (body %s)", resp.StatusCode, body)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("504 took %v; the deadline should have cut the request at ~50ms", elapsed)
	}

	// The X-Deadline-Ms header overrides the server default in both
	// directions; a long override keeps the request alive past the
	// 50ms default (the stub parks until expiry, so the elapsed time
	// proves which deadline governed).
	start = time.Now()
	resp = postScoreBatch(t, ts, map[string]string{"X-Deadline-Ms": "300"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("override expiry status = %d, want 504", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed < 250*time.Millisecond {
		t.Fatalf("override request finished in %v; X-Deadline-Ms=300 should have governed", elapsed)
	}
}

// TestProbesExemptFromAdmission: /healthz and /metrics must answer even
// when the serving endpoints are saturated — that is when an operator
// needs them most.
func TestProbesExemptFromAdmission(t *testing.T) {
	be := &blockingEngine{
		Engine:  newBaseEngine(t),
		entered: make(chan struct{}, 8),
		release: make(chan struct{}),
	}
	srv := NewWithOptions(be, Options{Admission: AdmissionConfig{MaxInFlight: 1, QueueDepth: 1}})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer close(be.release)

	go func() {
		resp := postScoreBatch(t, ts, nil)
		resp.Body.Close()
	}()
	select {
	case <-be.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("first request never reached the engine")
	}
	for _, path := range []string{"/healthz", "/metrics", "/stats"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s under saturation: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s under saturation = %d, want 200", path, resp.StatusCode)
		}
	}
}
