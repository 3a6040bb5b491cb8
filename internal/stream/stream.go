// Package stream defines the graph-stream model shared by the whole
// repository: a stream is an ordered sequence of timestamped edges,
// consumed one edge at a time by sketches, baselines, and evaluators.
//
// Streams are pull-based: a Source yields edges until exhaustion (io.EOF)
// so that arbitrarily long streams can be processed in constant memory.
// Adapters wrap sources to deduplicate edges, cut temporal train/test
// splits, count progress, and so on — the same composition style as
// io.Reader chains.
package stream

import (
	"errors"
	"fmt"
	"io"
)

// Edge is one element of a graph stream: an undirected edge {U, V}
// arriving at logical time T. Timestamps are non-decreasing in a
// well-formed stream; sources generated by this repository emit
// T = 0, 1, 2, … (arrival index) unless a generator supplies real
// timestamps.
type Edge struct {
	U, V uint64
	T    int64
}

// Canonical returns the edge with endpoints ordered so that U <= V.
// Undirected consumers use it as a set key.
func (e Edge) Canonical() Edge {
	if e.U > e.V {
		e.U, e.V = e.V, e.U
	}
	return e
}

// IsSelfLoop reports whether the edge joins a vertex to itself.
func (e Edge) IsSelfLoop() bool { return e.U == e.V }

// Source yields the edges of a graph stream in order. Next returns io.EOF
// after the last edge; any other error is a genuine failure (e.g. a parse
// error in a file-backed stream).
type Source interface {
	Next() (Edge, error)
}

// Slice returns a Source yielding the given edges in order. The slice is
// not copied; callers must not mutate it while the source is in use.
func Slice(edges []Edge) Source { return &sliceSource{edges: edges} }

type sliceSource struct {
	edges []Edge
	pos   int
}

func (s *sliceSource) Next() (Edge, error) {
	if s.pos >= len(s.edges) {
		return Edge{}, io.EOF
	}
	e := s.edges[s.pos]
	s.pos++
	return e, nil
}

// Collect drains src into a slice. It is intended for tests and for
// bounded streams; the whole point of the sketches is that production
// consumers never need it.
func Collect(src Source) ([]Edge, error) {
	var out []Edge
	for {
		e, err := src.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, e)
	}
}

// ForEach applies fn to every edge of src, stopping at io.EOF or the
// first error from the source or fn.
func ForEach(src Source, fn func(Edge) error) error {
	for {
		e, err := src.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(e); err != nil {
			return err
		}
	}
}

// ReadBatch fills buf from src and returns the number of edges read.
// It returns n < len(buf) only at the end of the stream or on error:
// n > 0 with err == nil means buf[:n] is a full (or final) batch;
// n == 0 with err == io.EOF means the stream is exhausted. This is the
// bulk analogue of Next, sized for the batched ingest path
// (core.Sharded.IngestBatch), which amortizes locking and hashing over
// whole batches.
func ReadBatch(src Source, buf []Edge) (int, error) {
	n := 0
	for n < len(buf) {
		e, err := src.Next()
		if err != nil {
			if errors.Is(err, io.EOF) && n > 0 {
				return n, nil
			}
			return n, err
		}
		buf[n] = e
		n++
	}
	return n, nil
}

// ForEachBatch applies fn to successive batches of at most size edges,
// reusing one internal buffer: the slice passed to fn is only valid for
// the duration of the call. It stops at the end of the stream or on the
// first error from the source or fn.
func ForEachBatch(src Source, size int, fn func([]Edge) error) error {
	if size < 1 {
		return fmt.Errorf("stream: ForEachBatch needs size >= 1, got %d", size)
	}
	buf := make([]Edge, size)
	for {
		n, err := ReadBatch(src, buf)
		if n > 0 {
			if fnErr := fn(buf[:n]); fnErr != nil {
				return fnErr
			}
		}
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		if n < size { // short batch: source is exhausted
			return nil
		}
	}
}

// Dedup wraps src and suppresses duplicate undirected edges and
// self-loops, so downstream consumers see each distinct edge once. It
// keeps a set of canonical edges, so its memory grows with the number of
// distinct edges — use it for ground-truth construction and tests, not
// inside constant-space consumers (the sketches tolerate duplicates
// natively).
func Dedup(src Source) Source {
	return &dedupSource{src: src, seen: make(map[[2]uint64]struct{})}
}

type dedupSource struct {
	src  Source
	seen map[[2]uint64]struct{}
}

func (d *dedupSource) Next() (Edge, error) {
	for {
		e, err := d.src.Next()
		if err != nil {
			return Edge{}, err
		}
		if e.IsSelfLoop() {
			continue
		}
		c := e.Canonical()
		key := [2]uint64{c.U, c.V}
		if _, ok := d.seen[key]; ok {
			continue
		}
		d.seen[key] = struct{}{}
		return e, nil
	}
}

// Limit wraps src and yields at most n edges.
func Limit(src Source, n int) Source { return &limitSource{src: src, left: n} }

type limitSource struct {
	src  Source
	left int
}

func (l *limitSource) Next() (Edge, error) {
	if l.left <= 0 {
		return Edge{}, io.EOF
	}
	e, err := l.src.Next()
	if err != nil {
		return Edge{}, err
	}
	l.left--
	return e, nil
}

// Counter wraps a Source and counts the edges that pass through it.
type Counter struct {
	src Source
	n   int64
}

// NewCounter returns a counting wrapper around src.
func NewCounter(src Source) *Counter { return &Counter{src: src} }

// Next implements Source.
func (c *Counter) Next() (Edge, error) {
	e, err := c.src.Next()
	if err == nil {
		c.n++
	}
	return e, err
}

// Count returns the number of edges yielded so far.
func (c *Counter) Count() int64 { return c.n }

// Split cuts edges into a train prefix and test suffix by stream position:
// the first ⌈frac·len⌉ edges are train, the rest test. frac must lie in
// [0, 1]. This is the standard temporal split for streaming link
// prediction: the model sees the past, is evaluated on the future.
func Split(edges []Edge, frac float64) (train, test []Edge, err error) {
	if frac < 0 || frac > 1 {
		return nil, nil, fmt.Errorf("stream: split fraction %v outside [0, 1]", frac)
	}
	cut := int(frac * float64(len(edges)))
	return edges[:cut], edges[cut:], nil
}

// Func adapts a function to the Source interface, for generators that
// produce edges on demand.
type Func func() (Edge, error)

// Next implements Source.
func (f Func) Next() (Edge, error) { return f() }

// Concat returns a Source that yields all edges of each source in turn.
func Concat(sources ...Source) Source { return &concatSource{sources: sources} }

type concatSource struct {
	sources []Source
}

func (c *concatSource) Next() (Edge, error) {
	for len(c.sources) > 0 {
		e, err := c.sources[0].Next()
		if errors.Is(err, io.EOF) {
			c.sources = c.sources[1:]
			continue
		}
		return e, err
	}
	return Edge{}, io.EOF
}
