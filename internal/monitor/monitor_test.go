package monitor

import (
	"math"
	"testing"

	"linkpred/internal/candidates"
	"linkpred/internal/gen"
	"linkpred/internal/graph"
	"linkpred/internal/rng"
	"linkpred/internal/stream"
)

func TestCountMinValidation(t *testing.T) {
	if _, err := NewCountMin(0, 4, 1); err == nil {
		t.Error("width=0 should error")
	}
	if _, err := NewCountMin(16, 0, 1); err == nil {
		t.Error("depth=0 should error")
	}
}

func TestCountMinNeverUnderestimates(t *testing.T) {
	cm, _ := NewCountMin(256, 4, 7)
	truth := map[uint64]uint64{}
	x := rng.NewXoshiro256(1)
	for i := 0; i < 20000; i++ {
		k := x.Uint64() % 500
		cm.Add(k, 1)
		truth[k]++
	}
	if cm.Total() != 20000 {
		t.Errorf("Total = %d", cm.Total())
	}
	for k, want := range truth {
		if got := cm.Count(k); got < want {
			t.Fatalf("Count(%d) = %d underestimates true %d", k, got, want)
		}
	}
}

func TestCountMinErrorBounded(t *testing.T) {
	const width, n = 2048, 50000
	cm, _ := NewCountMin(width, 4, 9)
	truth := map[uint64]uint64{}
	x := rng.NewXoshiro256(2)
	for i := 0; i < n; i++ {
		k := x.Uint64() % 2000
		cm.Add(k, 1)
		truth[k]++
	}
	// Expected overcount per counter ≈ N/width ≈ 24; allow 8× slack on
	// the max over the min-of-depth estimates.
	maxOver := uint64(0)
	for k, want := range truth {
		if over := cm.Count(k) - want; over > maxOver {
			maxOver = over
		}
	}
	if maxOver > 8*n/width {
		t.Errorf("max overcount %d exceeds 8N/width = %d", maxOver, 8*n/width)
	}
}

func TestCountMinUnseenKeySmall(t *testing.T) {
	cm, _ := NewCountMin(4096, 4, 11)
	for i := uint64(0); i < 10000; i++ {
		cm.Add(i, 1)
	}
	// An unseen key's estimate is pure collision noise: small.
	if got := cm.Count(1 << 60); got > 30 {
		t.Errorf("unseen key count = %d, want near 0", got)
	}
}

// The heavy-hitter tests below exercise candidates.SpaceSaving through
// the operations StreamMonitor relies on: rejection of an empty table,
// finding the heavy vertices of a shuffled stream, and a deterministic
// Top order.

func TestSpaceSavingValidation(t *testing.T) {
	if _, err := candidates.NewSpaceSaving(0); err == nil {
		t.Error("capacity=0 should error")
	}
	if _, err := New(Config{HeavyHitters: -1}); err == nil {
		t.Error("HeavyHitters=-1 should error")
	}
}

func TestSpaceSavingFindsHeavyHitters(t *testing.T) {
	ss, _ := candidates.NewSpaceSaving(20)
	x := rng.NewXoshiro256(3)
	// Keys 0..4 are heavy (10k each); 5..1004 are light (~10 each).
	truth := map[uint64]int64{}
	var events []uint64
	for k := uint64(0); k < 5; k++ {
		for i := 0; i < 10000; i++ {
			events = append(events, k)
		}
	}
	for k := uint64(5); k < 1005; k++ {
		for i := 0; i < 10; i++ {
			events = append(events, k)
		}
	}
	x.Shuffle(len(events), func(i, j int) { events[i], events[j] = events[j], events[i] })
	for _, k := range events {
		ss.Observe(k)
		truth[k]++
	}
	top := ss.Top(5)
	if len(top) != 5 {
		t.Fatalf("Top(5) returned %d entries", len(top))
	}
	for _, e := range top {
		if e.ID >= 5 {
			t.Errorf("light key %d in top-5", e.ID)
		}
		// Count within error bound of truth.
		if e.Count < truth[e.ID] || e.Count-e.Err > truth[e.ID] {
			t.Errorf("key %d: est %d (err %d) vs truth %d violates guarantee",
				e.ID, e.Count, e.Err, truth[e.ID])
		}
	}
	if ss.Len() > 20 {
		t.Errorf("tracking %d keys, capacity 20", ss.Len())
	}
}

func TestSpaceSavingTopOrderDeterministic(t *testing.T) {
	mk := func() []candidates.HeavyHitter {
		ss, _ := candidates.NewSpaceSaving(8)
		x := rng.NewXoshiro256(5)
		for i := 0; i < 5000; i++ {
			ss.Observe(x.Uint64() % 100)
		}
		return ss.Top(8)
	}
	a, b := mk(), mk()
	if len(a) != len(b) {
		t.Fatalf("Top sizes diverge: %d != %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Top not deterministic")
		}
	}
}

func TestKMVValidationAndExactness(t *testing.T) {
	if _, err := NewKMV(1, 1); err == nil {
		t.Error("k=1 should error")
	}
	v, _ := NewKMV(64, 1)
	// Below k distinct: exact, duplicates free.
	for i := uint64(0); i < 40; i++ {
		v.Add(i)
		v.Add(i)
	}
	if got := v.Estimate(); got != 40 {
		t.Errorf("under-k estimate = %v, want exactly 40", got)
	}
}

func TestKMVAccuracy(t *testing.T) {
	v, _ := NewKMV(512, 3)
	const distinct = 100000
	for i := uint64(0); i < distinct; i++ {
		v.Add(i)
		if i%3 == 0 {
			v.Add(i) // duplicates
		}
	}
	got := v.Estimate()
	if math.Abs(got-distinct)/distinct > 0.12 {
		t.Errorf("KMV estimate = %.0f, want within 12%% of %d", got, distinct)
	}
}

func TestMonitorDefaults(t *testing.T) {
	m, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if m.MemoryBytes() <= 0 {
		t.Error("memory accounting broken")
	}
}

func TestMonitorProfileAccuracy(t *testing.T) {
	src, err := gen.Open(gen.DatasetCoauthor, gen.ScaleSmall, 42)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := stream.Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New() // exact truth
	m, _ := New(Config{Seed: 7})
	for _, e := range raw {
		g.AddEdge(e.U, e.V)
		m.ProcessEdge(e)
	}
	r := m.Report(10)
	if r.Edges != int64(len(raw)) {
		t.Errorf("Edges = %d, want %d", r.Edges, len(raw))
	}
	if math.Abs(r.DistinctEdges-float64(g.NumEdges()))/float64(g.NumEdges()) > 0.10 {
		t.Errorf("DistinctEdges = %.0f, truth %d", r.DistinctEdges, g.NumEdges())
	}
	if math.Abs(r.DistinctVertices-float64(g.NumVertices()))/float64(g.NumVertices()) > 0.10 {
		t.Errorf("DistinctVertices = %.0f, truth %d", r.DistinctVertices, g.NumVertices())
	}
	trueDup := 1 - float64(g.NumEdges())/float64(len(raw))
	if math.Abs(r.DuplicateRate-trueDup) > 0.05 {
		t.Errorf("DuplicateRate = %.3f, truth %.3f", r.DuplicateRate, trueDup)
	}
	if len(r.TopVertices) != 10 {
		t.Fatalf("TopVertices has %d entries", len(r.TopVertices))
	}
	if r.String() == "" {
		t.Error("empty String()")
	}
}

func TestMonitorHeavyHittersOnHeavyTail(t *testing.T) {
	// Space-saving guarantees presence only for keys above N/capacity
	// arrivals, so test the hitters on a stream that actually has such
	// keys: the flickr stand-in (power-law, max degree in the hundreds).
	src, err := gen.Open(gen.DatasetFlickr, gen.ScaleSmall, 42)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := stream.Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New()
	m, _ := New(Config{Seed: 7})
	for _, e := range raw {
		g.AddEdge(e.U, e.V)
		m.ProcessEdge(e)
	}
	meanDeg := 2 * float64(g.NumEdges()) / float64(g.NumVertices())
	for _, e := range m.Report(5).TopVertices {
		if float64(g.Degree(e.ID)) < 5*meanDeg {
			t.Errorf("reported hitter %d has degree %d, mean is %.1f",
				e.ID, g.Degree(e.ID), meanDeg)
		}
	}
}

func TestMonitorSelfLoops(t *testing.T) {
	m, _ := New(Config{})
	m.ProcessEdge(stream.Edge{U: 1, V: 1})
	m.ProcessEdge(stream.Edge{U: 1, V: 2})
	r := m.Report(5)
	if r.SelfLoops != 1 || r.Edges != 1 {
		t.Errorf("self-loop accounting: %+v", r)
	}
}

func TestMonitorDegreeLookup(t *testing.T) {
	m, _ := New(Config{Seed: 1})
	for i := 0; i < 50; i++ {
		m.ProcessEdge(stream.Edge{U: 7, V: uint64(100 + i)})
	}
	if got := m.Degree(7); got < 50 {
		t.Errorf("Degree(7) = %d underestimates 50", got)
	}
}

func TestMonitorEmptyReport(t *testing.T) {
	m, _ := New(Config{})
	r := m.Report(5)
	if r.Edges != 0 || r.DuplicateRate != 0 || r.MeanDegree != 0 {
		t.Errorf("empty report = %+v", r)
	}
}
