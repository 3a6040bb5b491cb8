package core

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"linkpred/internal/rng"
	"linkpred/internal/stream"
)

// testLadder is the tier ladder most tiered tests use: cold vertices at
// 8 registers, promoted to 16 at 5 arrivals and to K=32 at 20.
func testLadder() [MaxTiers]Tier {
	return [MaxTiers]Tier{{K: 8, PromoteAt: 0}, {K: 16, PromoteAt: 5}, {K: 32, PromoteAt: 20}}
}

func tieredCfg(seed uint64) Config {
	return Config{K: 32, Seed: seed, Tiers: testLadder()}
}

// skewedEdges returns a stream whose low-id vertices are much hotter
// than the tail — the regime the tier ladder exists for. Timestamps are
// monotone so the windowed store can ingest the same stream.
func skewedEdges(n, m int, seed uint64) []stream.Edge {
	x := rng.NewXoshiro256(seed)
	es := make([]stream.Edge, 0, m)
	for i := 0; i < m; i++ {
		u := (x.Uint64() % uint64(n)) * (x.Uint64() % uint64(n)) / uint64(n)
		v := x.Uint64() % uint64(n)
		if u == v {
			v = (v + 1) % uint64(n)
		}
		es = append(es, stream.Edge{U: u, V: v, T: int64(i)})
	}
	return es
}

func TestTieredConfigValidation(t *testing.T) {
	cases := []struct {
		name  string
		cfg   Config
		valid bool
	}{
		{"uniform", Config{K: 32}, true},
		{"good ladder", tieredCfg(1), true},
		{"two rungs", Config{K: 16, Tiers: [MaxTiers]Tier{{K: 4}, {K: 16, PromoteAt: 10}}}, true},
		{"single tier", Config{K: 8, Tiers: [MaxTiers]Tier{{K: 8}}}, false},
		{"gap", Config{K: 32, Tiers: [MaxTiers]Tier{{K: 8}, {}, {K: 32, PromoteAt: 9}}}, false},
		{"tier0 nonzero threshold", Config{K: 16, Tiers: [MaxTiers]Tier{{K: 4, PromoteAt: 1}, {K: 16, PromoteAt: 5}}}, false},
		{"K not ascending", Config{K: 8, Tiers: [MaxTiers]Tier{{K: 8}, {K: 8, PromoteAt: 5}}}, false},
		{"PromoteAt not ascending", Config{K: 32, Tiers: [MaxTiers]Tier{{K: 8}, {K: 16, PromoteAt: 5}, {K: 32, PromoteAt: 5}}}, false},
		{"last K below Config.K", Config{K: 64, Tiers: testLadder()}, false},
		{"uniform with stray rung", Config{K: 32, Tiers: [MaxTiers]Tier{{}, {K: 16, PromoteAt: 5}}}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewSketchStore(tc.cfg)
			if tc.valid && err != nil {
				t.Fatalf("valid config rejected: %v", err)
			}
			if !tc.valid && err == nil {
				t.Fatal("invalid config accepted")
			}
			// The dynamic store shares the validator.
			_, err = NewDynamicStore(tc.cfg, 4)
			if tc.valid != (err == nil) {
				t.Fatalf("NewDynamicStore disagrees with NewSketchStore: err=%v", err)
			}
		})
	}

	bad := tieredCfg(1)
	bad.EnableBiased = true
	if _, err := NewSketchStore(bad); err == nil {
		t.Error("Tiers + EnableBiased accepted")
	}
	bad = tieredCfg(1)
	bad.TrackTriangles = true
	if _, err := NewSketchStore(bad); err == nil {
		t.Error("Tiers + TrackTriangles accepted")
	}
}

// TestTieredPromotionAndPrefix drives a hub-and-spokes stream through a
// tiered store and checks the two load-bearing invariants directly:
// the hub climbs the ladder exactly when its arrival count crosses each
// threshold, and every vertex's first tiers[0].K registers are
// byte-identical to a uniform store's — the min-k prefix property that
// makes cross-tier scoring sound.
func TestTieredPromotionAndPrefix(t *testing.T) {
	cfg := tieredCfg(401)
	uniCfg := Config{K: 32, Seed: 401}
	tiered, err := NewSketchStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	uniform, _ := NewSketchStore(uniCfg)

	const hub = uint64(0)
	for leaf := uint64(1); leaf <= 30; leaf++ {
		e := stream.Edge{U: hub, V: leaf}
		tiered.ProcessEdge(e)
		uniform.ProcessEdge(e)

		st := tiered.vertices[hub]
		wantTier := tierFor(tiered.tiers, st.arrivals)
		if got := int(st.slot >> tierShift); got != wantTier {
			t.Fatalf("after %d arrivals hub sits in tier %d, want %d", st.arrivals, got, wantTier)
		}
	}

	occ := tiered.TierOccupancy()
	if len(occ) != 3 {
		t.Fatalf("TierOccupancy returned %d tiers, want 3", len(occ))
	}
	if occ[0] != 30 || occ[1] != 0 || occ[2] != 1 {
		t.Fatalf("TierOccupancy = %v, want [30 0 1] (hub promoted, leaves cold)", occ)
	}
	if uniform.TierOccupancy() != nil {
		t.Fatal("uniform store must report nil TierOccupancy")
	}

	// Prefix property: the smallest-tier span is a full participant of
	// every fold, so its registers must match the uniform store exactly.
	prefix := cfg.Tiers[0].K
	for u, st := range tiered.vertices {
		got := tiered.bank.regs(st.slot)[:prefix]
		want := uniform.bank.regs(uniform.vertices[u].slot)[:prefix]
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("vertex %d register %d: tiered %d != uniform %d", u, i, got[i], want[i])
			}
		}
	}

	// And cross-tier pairs must therefore score identically to a pair of
	// tier-0 sketches: effK is the shared prefix length.
	matches, effK, _, _, known, _ := tiered.pairQuery(hub, 1, false, nil)
	if !known || effK != prefix {
		t.Fatalf("cross-tier pairQuery: effK = %d known=%v, want prefix %d", effK, known, prefix)
	}
	if j := est(tiered, QueryJaccard, hub, 1); j != float64(matches)/float64(prefix) {
		t.Fatalf("cross-tier Jaccard %v inconsistent with %d/%d prefix matches", j, matches, prefix)
	}
}

// TestTieredReserve pins the sizing-hint contract on a tiered store:
// reserving never changes results, only allocation behavior.
func TestTieredReserve(t *testing.T) {
	edges := skewedEdges(80, 2500, 409)
	a, err := NewSketchStore(tieredCfg(419))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewSketchStore(tieredCfg(419))
	b.Reserve(80)
	for _, e := range edges {
		a.ProcessEdge(e)
		b.ProcessEdge(e)
	}
	var ab, bb bytes.Buffer
	if err := a.Save(&ab); err != nil {
		t.Fatal(err)
	}
	if err := b.Save(&bb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab.Bytes(), bb.Bytes()) {
		t.Fatal("Reserve changed the ingested state")
	}
}

// imageVersion extracts the u32 version field that follows every
// image's 4-byte magic.
func imageVersion(img []byte) uint32 { return binary.LittleEndian.Uint32(img[4:8]) }

func saveBytes(t *testing.T, save func(io.Writer) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestUniformImagesStayVersion1 is the back-compat regression: the
// tiered refactor must not move a single byte of uniform images. Every
// store built without Tiers still writes format version 1.
func TestUniformImagesStayVersion1(t *testing.T) {
	edges := randomEdges(60, 1500, 421)
	cfg := Config{K: 16, Seed: 431}

	plain, _ := NewSketchStore(cfg)
	plain.IngestBatch(edges, nil)
	if v := imageVersion(saveBytes(t, plain.Save)); v != 1 {
		t.Fatalf("uniform LPSK image version = %d, want 1", v)
	}

	dir, _ := NewDirectedStore(cfg)
	for _, e := range edges {
		dir.ProcessArc(e)
	}
	if v := imageVersion(saveBytes(t, dir.Save)); v != 1 {
		t.Fatalf("uniform LPSD image version = %d, want 1", v)
	}

	dyn, _ := NewDynamicStore(cfg, 4)
	dyn.IngestBatch(edges, nil)
	if v := imageVersion(saveBytes(t, dyn.Save)); v != 1 {
		t.Fatalf("uniform LPDY image version = %d, want 1", v)
	}
}

// TestTieredImagesAreVersion2 pins the new format version on the three
// leaf image kinds (containers keep their own version and embed v2
// shard images).
func TestTieredImagesAreVersion2(t *testing.T) {
	edges := skewedEdges(60, 1500, 433)
	cfg := tieredCfg(439)

	plain, err := NewSketchStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain.IngestBatch(edges, nil)
	if v := imageVersion(saveBytes(t, plain.Save)); v != 2 {
		t.Fatalf("tiered LPSK image version = %d, want 2", v)
	}

	dir, err := NewDirectedStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		dir.ProcessArc(e)
	}
	if v := imageVersion(saveBytes(t, dir.Save)); v != 2 {
		t.Fatalf("tiered LPSD image version = %d, want 2", v)
	}

	dyn, err := NewDynamicStore(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	dyn.IngestBatch(edges, nil)
	if v := imageVersion(saveBytes(t, dyn.Save)); v != 2 {
		t.Fatalf("tiered LPDY image version = %d, want 2", v)
	}
}

// TestTieredRoundTripAllStores saves every tiered store kind, loads it
// back, and demands (a) the loaded store re-saves byte-identically —
// the loader reconstructs tiers, spans, and counters exactly — and
// (b) sampled pair estimates agree bit-for-bit with the original.
func TestTieredRoundTripAllStores(t *testing.T) {
	edges := skewedEdges(100, 4000, 443)
	cfg := tieredCfg(449)

	check := func(t *testing.T, img []byte, cfgGot Config, m QueryMeasure, orig, loaded Store) {
		t.Helper()
		if cfgGot != cfg {
			t.Fatalf("config round trip: %+v != %+v", cfgGot, cfg)
		}
		x := rng.NewXoshiro256(457)
		for i := 0; i < 300; i++ {
			u, v := x.Uint64()%100, x.Uint64()%100
			if a, b := est(orig, m, u, v), est(loaded, m, u, v); a != b {
				t.Fatalf("loaded estimate diverges at (%d,%d): %v != %v", u, v, a, b)
			}
		}
	}

	t.Run("sketch", func(t *testing.T) {
		s, err := NewSketchStore(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.IngestBatch(edges, nil)
		img := saveBytes(t, s.Save)
		loaded, err := LoadSketchStore(bytes.NewReader(img))
		if err != nil {
			t.Fatal(err)
		}
		if got := saveBytes(t, loaded.Save); !bytes.Equal(got, img) {
			t.Fatal("re-save differs from original image")
		}
		check(t, img, loaded.Config(), QueryJaccard, s, loaded)
		if a, b := s.TierOccupancy(), loaded.TierOccupancy(); len(a) != len(b) || a[0] != b[0] || a[1] != b[1] || a[2] != b[2] {
			t.Fatalf("TierOccupancy drifted across the round trip: %v != %v", a, b)
		}
	})

	t.Run("sharded", func(t *testing.T) {
		s, err := NewSharded(cfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		s.IngestBatch(edges, nil)
		img := saveBytes(t, s.Save)
		loaded, err := LoadSharded(bytes.NewReader(img))
		if err != nil {
			t.Fatal(err)
		}
		if got := saveBytes(t, loaded.Save); !bytes.Equal(got, img) {
			t.Fatal("re-save differs from original image")
		}
		check(t, img, loaded.Config(), QueryAdamicAdar, s, loaded)
	})

	t.Run("directed", func(t *testing.T) {
		s, err := NewDirectedStore(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range edges {
			s.ProcessArc(e)
		}
		img := saveBytes(t, s.Save)
		loaded, err := LoadDirected(bytes.NewReader(img))
		if err != nil {
			t.Fatal(err)
		}
		if got := saveBytes(t, loaded.Save); !bytes.Equal(got, img) {
			t.Fatal("re-save differs from original image")
		}
		check(t, img, loaded.Config(), QueryJaccard, s, loaded)
	})

	t.Run("sharded-directed", func(t *testing.T) {
		s, err := NewShardedDirected(cfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		s.IngestBatch(edges, nil)
		img := saveBytes(t, s.Save)
		loaded, err := LoadShardedDirected(bytes.NewReader(img))
		if err != nil {
			t.Fatal(err)
		}
		if got := saveBytes(t, loaded.Save); !bytes.Equal(got, img) {
			t.Fatal("re-save differs from original image")
		}
		check(t, img, loaded.Config(), QueryCosine, s, loaded)
	})

	t.Run("windowed", func(t *testing.T) {
		s, err := NewWindowed(cfg, 2000, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range edges {
			s.ProcessEdge(e)
		}
		img := saveBytes(t, s.Save)
		loaded, err := LoadWindowed(bytes.NewReader(img))
		if err != nil {
			t.Fatal(err)
		}
		if got := saveBytes(t, loaded.Save); !bytes.Equal(got, img) {
			t.Fatal("re-save differs from original image")
		}
		check(t, img, loaded.Config(), QueryJaccard, s, loaded)
	})

	t.Run("dynamic", func(t *testing.T) {
		s, err := NewDynamicStore(cfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		s.IngestBatch(edges, nil)
		// Delete a slice of the stream so the image carries tombstone-worn
		// sketches whose tier (from the monotone insert counter) exceeds
		// what the live arrival count alone would grant.
		for _, e := range edges[:500] {
			s.DeleteEdge(e)
		}
		img := saveBytes(t, s.Save)
		loaded, err := LoadDynamicStore(bytes.NewReader(img))
		if err != nil {
			t.Fatal(err)
		}
		if got := saveBytes(t, loaded.Save); !bytes.Equal(got, img) {
			t.Fatal("re-save differs from original image")
		}
		check(t, img, loaded.Config(), QueryJaccard, s, loaded)
	})
}

// TestTieredResumeStream saves a tiered store mid-stream — with some
// vertices one arrival short of promotion — resumes on the loaded copy,
// and requires the final image to be byte-identical to an uninterrupted
// run. This is the promotion-counter persistence contract: a loader
// that loses or rounds arrival counts would promote at the wrong edge.
func TestTieredResumeStream(t *testing.T) {
	edges := skewedEdges(80, 3000, 461)
	cfg := tieredCfg(463)
	full, err := NewSketchStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	half, _ := NewSketchStore(cfg)
	for i, e := range edges {
		full.ProcessEdge(e)
		if i < len(edges)/2 {
			half.ProcessEdge(e)
		}
	}
	resumed, err := LoadSketchStore(bytes.NewReader(saveBytes(t, half.Save)))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges[len(edges)/2:] {
		resumed.ProcessEdge(e)
	}
	if !bytes.Equal(saveBytes(t, resumed.Save), saveBytes(t, full.Save)) {
		t.Fatal("resumed tiered store diverges from uninterrupted ingest")
	}
}

// TestTieredPipelineMatchesSequential is the promotion order-independence
// contract, acceptance-grade: across a workers × batch grid, pipelined
// tiered ingest must be register- and Save-byte-identical to sequential
// ingest, promotions included. Duplicate edges stay in the stream —
// tiered stores count every arrival, on every path.
func TestTieredPipelineMatchesSequential(t *testing.T) {
	edges := skewedEdges(150, 5000, 467)
	edges = append(edges, edges[:200]...) // duplicates re-count arrivals identically everywhere
	cfg := tieredCfg(479)

	plain, err := NewSketchStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain.IngestBatch(edges, nil)

	seqStore, err := NewSharded(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	seqStore.IngestBatch(edges, nil)
	shardedRegistersEqual(t, seqStore, plain)
	want := saveBytes(t, seqStore.Save)

	for _, workers := range []int{1, 2, 5} {
		for _, batch := range []int{7, 256, len(edges)} {
			s, err := NewSharded(cfg, 8)
			if err != nil {
				t.Fatal(err)
			}
			if !s.StartPipeline(workers, 0) {
				t.Fatalf("StartPipeline(%d) refused", workers)
			}
			for lo := 0; lo < len(edges); lo += batch {
				hi := lo + batch
				if hi > len(edges) {
					hi = len(edges)
				}
				s.IngestBatch(edges[lo:hi], nil)
			}
			s.StopPipeline()
			shardedRegistersEqual(t, s, plain)
			if got := saveBytes(t, s.Save); !bytes.Equal(got, want) {
				t.Fatalf("workers=%d batch=%d: tiered pipeline Save differs from sequential", workers, batch)
			}
		}
	}
}

// TestTieredDirectedPipelineMatchesSequential is the directed twin: out-
// and in-side promotions ride independent counters, and both must land
// identically whatever the apply interleaving.
func TestTieredDirectedPipelineMatchesSequential(t *testing.T) {
	arcs := skewedEdges(120, 4000, 487)
	cfg := tieredCfg(491)
	seqStore, err := NewShardedDirected(cfg, 6)
	if err != nil {
		t.Fatal(err)
	}
	seqStore.IngestBatch(arcs, nil)
	want := saveBytes(t, seqStore.Save)

	for _, workers := range []int{1, 3} {
		for _, batch := range []int{13, 512} {
			s, err := NewShardedDirected(cfg, 6)
			if err != nil {
				t.Fatal(err)
			}
			if !s.StartPipeline(workers, 0) {
				t.Fatalf("StartPipeline(%d) refused", workers)
			}
			for lo := 0; lo < len(arcs); lo += batch {
				hi := lo + batch
				if hi > len(arcs) {
					hi = len(arcs)
				}
				s.IngestBatch(arcs[lo:hi], nil)
			}
			s.StopPipeline()
			if got := saveBytes(t, s.Save); !bytes.Equal(got, want) {
				t.Fatalf("workers=%d batch=%d: tiered directed pipeline Save differs from sequential", workers, batch)
			}
		}
	}
}

// TestTieredDynamicDeletesKeepTier pins the monotone-promotion rule of
// the deletion-capable store: deletes wear registers down but never
// demote — tier occupancy is a function of lifetime inserts only.
func TestTieredDynamicDeletesKeepTier(t *testing.T) {
	cfg := tieredCfg(499)
	s, err := NewDynamicStore(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	const hub = uint64(0)
	var hubEdges []stream.Edge
	for leaf := uint64(1); leaf <= 25; leaf++ {
		e := stream.Edge{U: hub, V: leaf}
		hubEdges = append(hubEdges, e)
		s.ProcessEdge(e)
	}
	occBefore := s.TierOccupancy()
	if occBefore[2] != 1 {
		t.Fatalf("hub with 25 inserts not in top tier: occupancy %v", occBefore)
	}
	for _, e := range hubEdges {
		if !s.DeleteEdge(e) {
			t.Fatalf("DeleteEdge(%v) failed", e)
		}
	}
	occAfter := s.TierOccupancy()
	for i := range occBefore {
		if occAfter[i] != occBefore[i] {
			t.Fatalf("deletes changed tier occupancy: %v -> %v (promotion must be monotone)", occBefore, occAfter)
		}
	}
	// Re-inserting must keep counting up the same monotone counter.
	s.ProcessEdge(stream.Edge{U: hub, V: 1})
	if got := s.TierOccupancy()[2]; got != 1 {
		t.Fatalf("hub left top tier after reinsert: occupancy %v", s.TierOccupancy())
	}
}

// TestTieredLSHBandBound: the banding index can only hash register
// prefixes every vertex carries, so bands*rows is bounded by the
// smallest tier's K on tiered stores (and by K on uniform ones).
func TestTieredLSHBandBound(t *testing.T) {
	s, err := NewSketchStore(tieredCfg(503))
	if err != nil {
		t.Fatal(err)
	}
	s.IngestBatch(skewedEdges(50, 800, 509), nil)
	if _, err := s.BuildLSHIndex(4, 2); err != nil {
		t.Fatalf("bands*rows = 8 = tiers[0].K rejected: %v", err)
	}
	if _, err := s.BuildLSHIndex(4, 4); err == nil {
		t.Fatal("bands*rows = 16 > tiers[0].K = 8 accepted on a tiered store")
	}
	u, _ := NewSketchStore(Config{K: 32, Seed: 503})
	u.IngestBatch(skewedEdges(50, 800, 509), nil)
	if _, err := u.BuildLSHIndex(4, 4); err != nil {
		t.Fatalf("bands*rows = 16 <= K = 32 rejected on a uniform store: %v", err)
	}
}

// TestTieredErrorBound checks the cross-tier bound against its
// definition: it is the uniform bound at the shared prefix length,
// symmetric in its arguments.
func TestTieredErrorBound(t *testing.T) {
	if got, want := TieredErrorBound(64, 16, 0.05), JaccardErrorBound(16, 0.05); got != want {
		t.Fatalf("TieredErrorBound(64,16) = %v, want JaccardErrorBound(16) = %v", got, want)
	}
	if TieredErrorBound(16, 64, 0.05) != TieredErrorBound(64, 16, 0.05) {
		t.Fatal("TieredErrorBound is not symmetric")
	}
	if TieredErrorBound(64, 64, 0.05) >= TieredErrorBound(64, 8, 0.05) {
		t.Fatal("bound must tighten as the shared prefix grows")
	}
}

// TestTieredCorruptTierTable rejects structurally broken v2 tier
// tables instead of constructing an inconsistent store.
func TestTieredCorruptTierTable(t *testing.T) {
	s, err := NewSketchStore(tieredCfg(521))
	if err != nil {
		t.Fatal(err)
	}
	s.IngestBatch(skewedEdges(30, 400, 523), nil)
	img := saveBytes(t, s.Save)

	// The tier count u32 sits right after magic(4) + version(4) + K(4) +
	// seed(8) + hash(1) + degree(1) + biased(1) + triangles(1) = 24 bytes.
	const tierCountOff = 24
	if binary.LittleEndian.Uint32(img[tierCountOff:]) != 3 {
		t.Fatalf("tier-table offset drifted; adjust the test (got count %d)",
			binary.LittleEndian.Uint32(img[tierCountOff:]))
	}
	for _, n := range []uint32{0, 1, MaxTiers + 1, 0xFFFFFFFF} {
		bad := append([]byte(nil), img...)
		binary.LittleEndian.PutUint32(bad[tierCountOff:], n)
		if _, err := LoadSketchStore(bytes.NewReader(bad)); err == nil {
			t.Fatalf("tier count %d accepted", n)
		}
	}
	// Descending K order breaks the ladder's strict ascent.
	bad := append([]byte(nil), img...)
	binary.LittleEndian.PutUint32(bad[tierCountOff+4:], 999999999)
	if _, err := LoadSketchStore(bytes.NewReader(bad)); err == nil {
		t.Fatal("absurd tier K accepted")
	}
}
