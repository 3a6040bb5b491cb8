package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
)

// FuzzLoadSketchStore feeds arbitrary bytes to the persistence loader:
// it must never panic, and any input it accepts must save back to an
// equivalent store.
func FuzzLoadSketchStore(f *testing.F) {
	// Seed corpus: a real saved store, plus truncations and corruptions.
	s, err := NewSketchStore(Config{K: 4, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range randomEdges(10, 40, 1) {
		s.ProcessEdge(e)
	}
	var valid bytes.Buffer
	if err := s.Save(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:10])
	corrupt := append([]byte(nil), valid.Bytes()...)
	corrupt[8] ^= 0xff
	f.Add(corrupt)
	f.Add([]byte("LPSK"))
	f.Add([]byte{})
	// A biased-sketch image (exercises the per-vertex entry lists), its
	// truncations at the header/vertex boundaries, and forged headers
	// that drive each hardening check: impossible K, out-of-range enum
	// bytes, non-boolean flags, and a vertex count no input could back.
	b, err := NewSketchStore(Config{K: 4, Seed: 2, EnableBiased: true, TrackTriangles: true})
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range randomEdges(10, 40, 2) {
		b.ProcessEdge(e)
	}
	var biased bytes.Buffer
	if err := b.Save(&biased); err != nil {
		f.Fatal(err)
	}
	f.Add(biased.Bytes())
	f.Add(biased.Bytes()[:24])                    // through the flags
	f.Add(biased.Bytes()[:48])                    // through the vertex count
	f.Add(biased.Bytes()[:len(biased.Bytes())-3]) // torn final vertex
	forge := func(mutate func(img []byte)) []byte {
		img := append([]byte(nil), valid.Bytes()...)
		mutate(img)
		return img
	}
	f.Add(forge(func(img []byte) { binary.LittleEndian.PutUint32(img[8:12], 0) }))      // K = 0
	f.Add(forge(func(img []byte) { binary.LittleEndian.PutUint32(img[8:12], 1<<30) }))  // K beyond bound
	f.Add(forge(func(img []byte) { img[20] = 0xff }))                                   // unknown hash family
	f.Add(forge(func(img []byte) { img[21] = 0xff }))                                   // unknown degree mode
	f.Add(forge(func(img []byte) { img[22] = 2 }))                                      // non-boolean flag
	f.Add(forge(func(img []byte) { binary.LittleEndian.PutUint64(img[40:48], 1<<62) })) // forged vertex count

	f.Fuzz(func(t *testing.T, input []byte) {
		loaded, err := LoadSketchStore(bytes.NewReader(input))
		if err != nil {
			return // rejected: fine
		}
		// Accepted input: the store must be usable and must re-save to
		// something loadable that answers identically.
		var out bytes.Buffer
		if err := loaded.Save(&out); err != nil {
			t.Fatalf("re-save of accepted store failed: %v", err)
		}
		again, err := LoadSketchStore(&out)
		if err != nil {
			t.Fatalf("re-load of re-saved store failed: %v", err)
		}
		if again.NumVertices() != loaded.NumVertices() || again.NumEdges() != loaded.NumEdges() {
			t.Fatal("save/load not idempotent on accepted input")
		}
		// Queries must not panic or produce invalid values.
		for u := uint64(0); u < 5; u++ {
			for v := uint64(0); v < 5; v++ {
				j := est(loaded, QueryJaccard, u, v)
				if j < 0 || j > 1 {
					t.Fatalf("loaded store yields invalid Jaccard %v", j)
				}
			}
		}
	})
}

// FuzzLoadAny feeds arbitrary bytes to the magic-dispatching loader, so
// every store's decoder sees fuzzed input: it must never panic, and any
// input it accepts must save, re-load as the same store type, and
// re-save to the same bytes. The seed corpus holds one image of every
// store type, uniform and tiered, plus truncations of each.
func FuzzLoadAny(f *testing.F) {
	uniform := Config{K: 4, Seed: 5}
	tiered := Config{K: 16, Seed: 5, Tiers: [MaxTiers]Tier{{K: 4}, {K: 8, PromoteAt: 4}, {K: 16, PromoteAt: 10}}}
	edges := skewedEdges(12, 60, 5)
	for _, cfg := range []Config{uniform, tiered} {
		build := []func() (Store, error){
			func() (Store, error) { return NewSketchStore(cfg) },
			func() (Store, error) { return NewSharded(cfg, 2) },
			func() (Store, error) { return NewDirectedStore(cfg) },
			func() (Store, error) { return NewShardedDirected(cfg, 2) },
			func() (Store, error) { return NewWindowed(cfg, 30, 2) },
			func() (Store, error) { return NewDynamicStore(cfg, 2) },
		}
		for _, mk := range build {
			s, err := mk()
			if err != nil {
				f.Fatal(err)
			}
			s.IngestBatch(edges, nil)
			var img bytes.Buffer
			if err := s.Save(&img); err != nil {
				f.Fatal(err)
			}
			b := img.Bytes()
			f.Add(b)
			f.Add(b[:4])        // magic only
			f.Add(b[:len(b)/2]) // torn mid-image
			f.Add(b[:len(b)-1]) // torn final byte
		}
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, input []byte) {
		loaded, err := LoadAny(bytes.NewReader(input))
		if err != nil {
			return // rejected: fine
		}
		var first bytes.Buffer
		if err := loaded.Save(&first); err != nil {
			t.Fatalf("re-save of accepted %T failed: %v", loaded, err)
		}
		again, err := LoadAny(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-load of re-saved %T failed: %v", loaded, err)
		}
		if fmt.Sprintf("%T", again) != fmt.Sprintf("%T", loaded) {
			t.Fatalf("re-load changed the store type: %T -> %T", loaded, again)
		}
		var second bytes.Buffer
		if err := again.Save(&second); err != nil {
			t.Fatalf("second save of %T failed: %v", again, err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("%T: save/load/save not idempotent on accepted input", loaded)
		}
	})
}
