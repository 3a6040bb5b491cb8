package core

import (
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"
)

// Corrupt-image tests for every binary loader: truncated or mutilated
// checkpoint files must be rejected with a useful error — never a
// panic, never a silently wrong store. (Undetected payload bit-flips
// are the WAL snapshot checksum's job; the loaders' contract is to
// reject structurally impossible images.)

// corruptLoaders enumerates the loaders with a valid image each.
func corruptLoaders(t *testing.T) map[string]struct {
	image []byte
	load  func(io.Reader) error
} {
	t.Helper()
	edges := randomEdges(60, 500, 501)

	sketch, err := NewSketchStore(Config{K: 8, Seed: 1, EnableBiased: true, TrackTriangles: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		sketch.ProcessEdge(e)
	}
	sharded, err := NewSharded(Config{K: 8, Seed: 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	sharded.IngestBatch(edges, nil)
	windowed, err := NewWindowed(Config{K: 8, Seed: 1}, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		windowed.ProcessEdge(e)
	}
	directed, err := NewDirectedStore(Config{K: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		directed.ProcessArc(e)
	}
	shardedDir, err := NewShardedDirected(Config{K: 8, Seed: 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	shardedDir.IngestBatch(edges, nil)

	save := func(s interface{ Save(io.Writer) error }) []byte {
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	return map[string]struct {
		image []byte
		load  func(io.Reader) error
	}{
		"sketch": {save(sketch), func(r io.Reader) error {
			_, err := LoadSketchStore(r)
			return err
		}},
		"sharded": {save(sharded), func(r io.Reader) error {
			_, err := LoadSharded(r)
			return err
		}},
		"windowed": {save(windowed), func(r io.Reader) error {
			_, err := LoadWindowed(r)
			return err
		}},
		"directed": {save(directed), func(r io.Reader) error {
			_, err := LoadDirected(r)
			return err
		}},
		"sharded-directed": {save(shardedDir), func(r io.Reader) error {
			_, err := LoadShardedDirected(r)
			return err
		}},
	}
}

// TestLoadersRejectTruncation feeds every loader every truncated prefix
// of its own valid image (stride 7 plus the boundary cases): each must
// return an error, never panic, never succeed.
func TestLoadersRejectTruncation(t *testing.T) {
	for name, tc := range corruptLoaders(t) {
		t.Run(name, func(t *testing.T) {
			cuts := []int{0, 1, 3, len(tc.image) - 1}
			for n := 4; n < len(tc.image)-1; n += 7 {
				cuts = append(cuts, n)
			}
			for _, n := range cuts {
				if err := tc.load(bytes.NewReader(tc.image[:n])); err == nil {
					t.Fatalf("truncation to %d of %d bytes loaded without error", n, len(tc.image))
				}
			}
		})
	}
}

// TestLoadersRejectImpossibleFields forges structurally impossible
// header fields — counts no input could back, enum bytes outside their
// range — and checks each is rejected with an error naming the fault's
// byte offset.
func TestLoadersRejectImpossibleFields(t *testing.T) {
	loaders := corruptLoaders(t)
	// Shared single-store header layout (sketch and directed):
	// magic 0:4 | version 4:8 | K 8:12 | seed 12:20 | flags 20:24.
	singleStore := []struct {
		name   string
		mutate func(img []byte)
	}{
		{"bad-magic", func(img []byte) { copy(img, "NOPE") }},
		{"bad-version", func(img []byte) { binary.LittleEndian.PutUint32(img[4:8], 99) }},
		{"zero-K", func(img []byte) { binary.LittleEndian.PutUint32(img[8:12], 0) }},
		{"huge-K", func(img []byte) { binary.LittleEndian.PutUint32(img[8:12], 1<<30) }},
		{"bad-hash-kind", func(img []byte) { img[20] = 0x40 }},
		{"bad-degree-mode", func(img []byte) { img[21] = 0x40 }},
		{"bad-flag-byte", func(img []byte) { img[22] = 7 }},
	}
	for _, fmtName := range []string{"sketch", "directed"} {
		tc := loaders[fmtName]
		for _, m := range singleStore {
			t.Run(fmtName+"/"+m.name, func(t *testing.T) {
				img := append([]byte(nil), tc.image...)
				m.mutate(img)
				err := tc.load(bytes.NewReader(img))
				if err == nil {
					t.Fatal("impossible image loaded without error")
				}
				if !strings.Contains(err.Error(), "byte") {
					t.Fatalf("error does not name a byte offset: %v", err)
				}
			})
		}
	}
	// Vertex count no image could back.
	for _, fmtName := range []string{"sketch", "directed"} {
		tc := loaders[fmtName]
		t.Run(fmtName+"/huge-vertex-count", func(t *testing.T) {
			img := append([]byte(nil), tc.image...)
			off := 40 // sketch: after edges+triangles
			if fmtName == "directed" {
				off = 32 // directed: after arcs
			}
			binary.LittleEndian.PutUint64(img[off:off+8], 1<<62)
			if err := tc.load(bytes.NewReader(img)); err == nil {
				t.Fatal("forged vertex count loaded without error")
			}
		})
	}
	// Container headers: shard counts.
	for _, fmtName := range []string{"sharded", "sharded-directed"} {
		tc := loaders[fmtName]
		for _, bad := range []uint32{0, 1 << 20} {
			t.Run(fmtName+"/bad-shard-count", func(t *testing.T) {
				img := append([]byte(nil), tc.image...)
				binary.LittleEndian.PutUint32(img[8:12], bad)
				if err := tc.load(bytes.NewReader(img)); err == nil {
					t.Fatalf("shard count %d loaded without error", bad)
				}
			})
		}
	}
	// Windowed geometry: magic 0:4 | version 4:8 | span 8:16 |
	// nGens 16:20 | cur 20:24 | … | started byte 40.
	{
		tc := loaders["windowed"]
		windowed := []struct {
			name   string
			mutate func(img []byte)
		}{
			{"zero-span", func(img []byte) { binary.LittleEndian.PutUint64(img[8:16], 0) }},
			{"one-generation", func(img []byte) { binary.LittleEndian.PutUint32(img[16:20], 1) }},
			{"cursor-out-of-range", func(img []byte) { binary.LittleEndian.PutUint32(img[20:24], 99) }},
			{"bad-started-flag", func(img []byte) { img[40] = 5 }},
		}
		for _, m := range windowed {
			t.Run("windowed/"+m.name, func(t *testing.T) {
				img := append([]byte(nil), tc.image...)
				m.mutate(img)
				if err := tc.load(bytes.NewReader(img)); err == nil {
					t.Fatal("impossible windowed image loaded without error")
				}
			})
		}
	}
}
