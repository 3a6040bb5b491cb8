package linkpred_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	linkpred "linkpred"
)

// TestCancellationAcrossModes drives the core cancellation sentinel
// through a real engine of every mode, built by NewEngine so the
// single-writer modes run under their Synchronized wrapper. A done
// context must surface as its own error (Canceled vs DeadlineExceeded),
// a cancelled ingest must apply nothing, and the plain entry points
// must be the Background-context calls bit for bit.
func TestCancellationAcrossModes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	randomEdges := func(n int, t0 int64) []linkpred.Edge {
		edges := make([]linkpred.Edge, 0, n)
		for len(edges) < n {
			u, v := uint64(rng.Intn(60)), uint64(rng.Intn(60))
			if u != v {
				edges = append(edges, linkpred.Edge{U: u, V: v, T: t0 + int64(len(edges))})
			}
		}
		return edges
	}
	edges, more := randomEdges(600, 0), randomEdges(100, 600)
	cands := make([]uint64, 60)
	for i := range cands {
		cands[i] = uint64(i)
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancelExpired := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancelExpired()
	doneCtxs := []struct {
		name string
		ctx  context.Context
		want error
	}{
		{"canceled", canceled, context.Canceled},
		{"deadline", expired, context.DeadlineExceeded},
	}

	for _, mode := range []string{
		linkpred.ModeSingle,
		linkpred.ModeConcurrent,
		linkpred.ModeDirected,
		linkpred.ModeConcurrentDirected,
		linkpred.ModeWindowed,
		linkpred.ModeDynamic,
	} {
		t.Run(mode, func(t *testing.T) {
			e, err := linkpred.NewEngine(linkpred.EngineSpec{
				Mode:   mode,
				Config: linkpred.Config{K: 32, Seed: 3},
				Shards: 4,
				Window: 1 << 40, // one giant window: nothing expires
				Gens:   4,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.ObserveEdgesCtx(context.Background(), edges); err != nil {
				t.Fatalf("live ObserveEdgesCtx: %v", err)
			}
			saved := func() []byte {
				var buf bytes.Buffer
				if err := e.Save(&buf); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}

			for _, d := range doneCtxs {
				if _, err := e.ScoreBatchCtx(d.ctx, linkpred.AdamicAdar, 1, cands); !errors.Is(err, d.want) {
					t.Errorf("%s: ScoreBatchCtx err = %v, want %v", d.name, err, d.want)
				}
				if _, err := e.TopKCtx(d.ctx, linkpred.Jaccard, 1, cands, 5); !errors.Is(err, d.want) {
					t.Errorf("%s: TopKCtx err = %v, want %v", d.name, err, d.want)
				}
				n, img := e.NumEdges(), saved()
				if err := e.ObserveEdgesCtx(d.ctx, more); !errors.Is(err, d.want) {
					t.Errorf("%s: ObserveEdgesCtx err = %v, want %v", d.name, err, d.want)
				}
				if got := e.NumEdges(); got != n {
					t.Errorf("%s: cancelled ingest changed NumEdges %d -> %d", d.name, n, got)
				}
				if !bytes.Equal(saved(), img) {
					t.Errorf("%s: cancelled ingest changed the saved image", d.name)
				}
			}

			for _, m := range linkpred.AllMeasures {
				plain, err := e.ScoreBatch(m, 1, cands)
				if err != nil {
					t.Fatal(err)
				}
				withCtx, err := e.ScoreBatchCtx(context.Background(), m, 1, cands)
				if err != nil {
					t.Fatal(err)
				}
				for i := range plain {
					if math.Float64bits(plain[i]) != math.Float64bits(withCtx[i]) {
						t.Fatalf("%v: ScoreBatch[%d] = %v, ScoreBatchCtx = %v", m, i, plain[i], withCtx[i])
					}
				}
				top, err := e.TopK(m, 1, cands, 10)
				if err != nil {
					t.Fatal(err)
				}
				topCtx, err := e.TopKCtx(context.Background(), m, 1, cands, 10)
				if err != nil {
					t.Fatal(err)
				}
				if len(top) != len(topCtx) {
					t.Fatalf("%v: TopK has %d results, TopKCtx %d", m, len(top), len(topCtx))
				}
				for i := range top {
					if top[i].V != topCtx[i].V || math.Float64bits(top[i].Score) != math.Float64bits(topCtx[i].Score) {
						t.Fatalf("%v: TopK[%d] = %+v, TopKCtx = %+v", m, i, top[i], topCtx[i])
					}
				}
			}

			n := e.NumEdges()
			if err := e.ObserveEdgesCtx(context.Background(), more); err != nil {
				t.Fatalf("live ObserveEdgesCtx after cancellations: %v", err)
			}
			if e.NumEdges() <= n {
				t.Errorf("live ingest did not advance NumEdges past %d", n)
			}
		})
	}
}
