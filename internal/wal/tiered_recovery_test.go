package wal

import (
	"bytes"
	"io"
	"testing"

	"linkpred/internal/core"
	"linkpred/internal/stream"
)

// Tiered crash-recovery property tests. Promotion makes recovery
// strictly harder than the uniform case: a vertex's register span
// depends on its arrival count, so a replay that loses, doubles, or
// reorders arrivals doesn't just perturb registers — it leaves the
// vertex in the wrong tier, which byte-identity against a sequential
// reference catches immediately. The property is the same two-parter
// as recovery_test.go: acknowledged edges survive any crash byte, and
// the recovered store is bit-identical to a fresh store fed exactly
// the recovered prefix (promotions replayed from scratch).

// tieredRecoveryCfg keeps thresholds low so the test stream promotes
// hundreds of vertices across both rungs while crashes land mid-ladder.
var tieredRecoveryCfg = core.Config{
	K:     16,
	Seed:  7,
	Tiers: [core.MaxTiers]core.Tier{{K: 4, PromoteAt: 0}, {K: 8, PromoteAt: 6}, {K: 16, PromoteAt: 24}},
}

// tieredTestEdges skews testEdges: half the endpoint mass folds onto 50
// hot vertices, the rest stays spread over a 250-vertex tail. Both the
// full and -short edge budgets then land vertices on every rung — hot
// ids race past the top threshold while the tail straddles the lower
// ones — which the occupancy guards below depend on.
func tieredTestEdges(seed uint64, n int) []stream.Edge {
	edges := testEdges(seed, n)
	fold := func(v uint64) uint64 {
		if v >= 250 {
			return v % 50
		}
		return v
	}
	for i := range edges {
		edges[i].U = fold(edges[i].U)
		edges[i].V = fold(edges[i].V)
	}
	return edges
}

// tieredDrive is drive() under the tiered config: ingest through a
// Durable until done or the first injected failure.
func tieredDrive(t *testing.T, fs *FaultFS, edges []stream.Edge, batch, ckptEvery int) driveResult {
	t.Helper()
	store, err := core.NewSharded(tieredRecoveryCfg, recoveryShards)
	if err != nil {
		t.Fatal(err)
	}
	w, err := Open("/wal", Options{FS: fs, Fsync: FsyncAlways, SegmentBytes: 16 << 10})
	if err != nil {
		return driveResult{}
	}
	d := NewDurable(w, "/wal", KindEdge, store.Save)
	apply := func(b []stream.Edge) { store.IngestBatch(b, nil) }
	var res driveResult
	for i, nb := 0, 0; i < len(edges); i, nb = i+batch, nb+1 {
		hi := i + batch
		if hi > len(edges) {
			hi = len(edges)
		}
		if err := d.Ingest(edges[i:hi], apply); err != nil {
			return res
		}
		res.acked = hi
		res.boundaries = append(res.boundaries, fs.TotalWritten())
		if ckptEvery > 0 && nb%ckptEvery == ckptEvery-1 {
			pre := fs.TotalWritten()
			if err := d.Checkpoint(); err != nil {
				return res
			}
			res.ckptSpans = append(res.ckptSpans, [2]int64{pre, fs.TotalWritten()})
		}
	}
	res.completed = true
	return res
}

func tieredRecoverStore(t *testing.T, fs *FaultFS) (*core.Sharded, RecoverResult) {
	t.Helper()
	store, err := core.NewSharded(tieredRecoveryCfg, recoveryShards)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Recover(fs, "/wal", func(r io.Reader) error {
		s, err := core.LoadSharded(r)
		if err != nil {
			return err
		}
		store = s
		return nil
	}, func(rec Record) error {
		store.IngestBatch(rec.Edges, nil)
		return nil
	})
	if err != nil {
		t.Fatalf("recover: %v\n%s", err, fs.Dump())
	}
	return store, res
}

func tieredReferenceStore(t *testing.T, edges []stream.Edge) *core.Sharded {
	t.Helper()
	ref, err := core.NewSharded(tieredRecoveryCfg, recoveryShards)
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) > 0 {
		ref.IngestBatch(edges, nil)
	}
	return ref
}

// tieredCrashAndRecover runs one crash experiment under the tiered
// config and verifies both halves of the property, plus tier-occupancy
// agreement (redundant with byte-identity, but it localises failures
// to the promotion machinery when something breaks).
func tieredCrashAndRecover(t *testing.T, edges []stream.Edge, batch, ckptEvery int, k int64, keepAllWritten bool) {
	t.Helper()
	fs := NewFaultFS()
	fs.FailWritesAfter(k)
	res := tieredDrive(t, fs, edges, batch, ckptEvery)
	keep := int64(0)
	if keepAllWritten {
		keep = k
	}
	fs.Crash(keep)
	fs.Restart()
	store, rec := tieredRecoverStore(t, fs)

	lastSeq := rec.LastSeq()
	if lastSeq < uint64(res.acked) {
		t.Fatalf("crash at byte %d (keep=%d): recovered seq %d < acknowledged %d\n%s",
			k, keep, lastSeq, res.acked, fs.Dump())
	}
	if lastSeq > uint64(len(edges)) {
		t.Fatalf("recovered seq %d beyond stream length %d", lastSeq, len(edges))
	}
	ref := tieredReferenceStore(t, edges[:lastSeq])
	gotOcc, wantOcc := store.TierOccupancy(), ref.TierOccupancy()
	for i := range wantOcc {
		if gotOcc[i] != wantOcc[i] {
			t.Fatalf("crash at byte %d (keep=%d, seq %d): tier occupancy %v, reference %v",
				k, keep, lastSeq, gotOcc, wantOcc)
		}
	}
	if !bytes.Equal(saveBytes(t, store), saveBytes(t, ref)) {
		t.Fatalf("crash at byte %d (keep=%d, recovered seq %d): recovered tiered store differs from sequential reference\n%s",
			k, keep, lastSeq, fs.Dump())
	}
}

// TestCrashRecoveryEveryBoundaryTiered is the promotion-aware variant
// of the headline crash property: crash points cover every acknowledged
// batch boundary (stride-thinned), torn mid-record positions, and
// mid-snapshot bytes — the snapshots here being v2 tiered images whose
// tier table and variable-width spans must survive partial writes.
func TestCrashRecoveryEveryBoundaryTiered(t *testing.T) {
	nEdges, batch, ckptEvery := 6000, 64, 24
	stride := 2
	if testing.Short() {
		nEdges, stride = 1500, 6
	}
	edges := tieredTestEdges(48, nEdges)

	base := NewFaultFS()
	plan := tieredDrive(t, base, edges, batch, ckptEvery)
	if !plan.completed {
		t.Fatal("reference run did not complete")
	}
	// The run must actually exercise the ladder, or the crash grid
	// proves nothing about promotions.
	occ := tieredReferenceStore(t, edges).TierOccupancy()
	if occ[1] == 0 || occ[2] == 0 {
		t.Fatalf("stream never promoted past tier 0 (occupancy %v); retune thresholds", occ)
	}

	var points []int64
	points = append(points, 0)
	for i := 0; i < len(plan.boundaries); i += stride {
		b := plan.boundaries[i]
		points = append(points, b, b+recHeaderSize+3, b-1)
	}
	for _, span := range plan.ckptSpans {
		points = append(points, (span[0]+span[1])/2, span[1]-1)
	}
	points = append(points, base.TotalWritten()+1)

	for _, k := range points {
		tieredCrashAndRecover(t, edges, batch, ckptEvery, k, true)
		tieredCrashAndRecover(t, edges, batch, ckptEvery, k, false)
	}
}

// TestTieredReplayByteIdentity pins WAL-replay determinism with
// promotions enabled on the clean-restart path (no crash): snapshot at
// an arbitrary mid-stream point — many vertices one arrival short of a
// rung — then replay the tail, and require the recovered store to
// byte-match both the live store and a sequential reference.
func TestTieredReplayByteIdentity(t *testing.T) {
	dir := t.TempDir()
	edges := tieredTestEdges(49, 4000)
	store, err := core.NewSharded(tieredRecoveryCfg, recoveryShards)
	if err != nil {
		t.Fatal(err)
	}
	w, err := Open(dir, Options{SegmentBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDurable(w, dir, KindEdge, store.Save)
	apply := func(b []stream.Edge) { store.IngestBatch(b, nil) }
	if err := d.Ingest(edges[:1700], apply); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Ingest(edges[1700:], apply); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil { // close WITHOUT checkpointing: force tail replay
		t.Fatal(err)
	}

	recovered, err := core.NewSharded(tieredRecoveryCfg, recoveryShards)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Recover(nil, dir, func(r io.Reader) error {
		s, err := core.LoadSharded(r)
		if err == nil {
			recovered = s
		}
		return err
	}, func(rec Record) error {
		recovered.IngestBatch(rec.Edges, nil)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.SnapshotLoaded || res.LastSeq() != uint64(len(edges)) {
		t.Fatalf("recovery result %+v", res)
	}
	want := saveBytes(t, tieredReferenceStore(t, edges))
	if !bytes.Equal(saveBytes(t, recovered), want) {
		t.Fatal("snapshot+tail replay with promotions differs from sequential reference")
	}
	if !bytes.Equal(saveBytes(t, store), want) {
		t.Fatal("live tiered store differs from sequential reference")
	}
}
