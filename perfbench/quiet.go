package main

import (
	"slices"
	"sort"
	"time"
)

// The host is a shared virtual machine whose hypervisor, in bursts of
// seconds to minutes, runs other guests on its CPUs (steal time in
// /proc/stat). During a second with 20–30% steal the ingest p90 read
// two to three times its quiet value, and a run with 13% steal read
// p90 11.6 ms against 5.6–6.1 ms in runs with under 1.5%. So every
// timed figure is taken over the quiet seconds of its phases: those in
// which the hypervisor stole less than quietSteal of the host's CPU
// time. A run with too few of them uses its least-stolen
// seconds, at least quietFloor of the phase time. The choice looks only
// at steal ticks, never at the latencies, and the info line gives every
// figure over all seconds as well.
const (
	quietSteal = 0.02
	quietFloor = 1.0 / 3
)

// stealWindow is one second (the last one of a phase may be shorter) of
// a timed phase, with the share of the host's CPU time stolen in it.
type stealWindow struct {
	start, end time.Time
	steal      float64
}

func (w stealWindow) seconds() float64 { return w.end.Sub(w.start).Seconds() }

func (w stealWindow) holds(t time.Time) bool { return !t.Before(w.start) && t.Before(w.end) }

// stealMeter cuts a timed phase into one-second windows, reading the
// host's steal and total CPU ticks at each cut.
type stealMeter struct {
	stop, done chan struct{}
	windows    []stealWindow
}

func startStealMeter() *stealMeter {
	m := &stealMeter{stop: make(chan struct{}), done: make(chan struct{})}
	start := time.Now()
	steal, total := cpuTicks()
	go func() {
		defer close(m.done)
		t := time.NewTicker(time.Second)
		defer t.Stop()
		cut := func() {
			now := time.Now()
			s, tt := cpuTicks()
			share := 0.0
			if tt > total {
				share = (s - steal) / (tt - total)
			}
			m.windows = append(m.windows, stealWindow{start: start, end: now, steal: share})
			start, steal, total = now, s, tt
		}
		for {
			select {
			case <-t.C:
				cut()
			case <-m.stop:
				cut()
				return
			}
		}
	}()
	return m
}

// finish ends the last window and returns them all.
func (m *stealMeter) finish() []stealWindow {
	close(m.stop)
	<-m.done
	return m.windows
}

// measure runs fn, a timed phase whose requests belong to the given
// phase groups ("ingest", "topk"), under a steal meter.
func (r *recorder) measure(fn func(), groups ...string) {
	m := startStealMeter()
	fn()
	ws := m.finish()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, g := range groups {
		r.windows[g] = append(r.windows[g], ws...)
	}
}

// quietWindows returns the windows with less than quietSteal steal or,
// when those cover less than quietFloor of the total time, the
// least-stolen windows that do.
func quietWindows(ws []stealWindow) []stealWindow {
	var quiet []stealWindow
	var quietS, totalS float64
	for _, w := range ws {
		totalS += w.seconds()
		if w.steal < quietSteal {
			quiet = append(quiet, w)
			quietS += w.seconds()
		}
	}
	if quietS >= quietFloor*totalS {
		return quiet
	}
	byShare := slices.Clone(ws)
	sort.SliceStable(byShare, func(i, j int) bool { return byShare[i].steal < byShare[j].steal })
	quiet, quietS = nil, 0
	for _, w := range byShare {
		if quietS >= quietFloor*totalS {
			break
		}
		quiet = append(quiet, w)
		quietS += w.seconds()
	}
	return quiet
}

// within returns the latencies and the summed units of the requests
// that completed inside one of the windows.
func within(ss []request, ws []stealWindow) (lat []float64, units int) {
	for _, s := range ss {
		for _, w := range ws {
			if w.holds(s.done) {
				lat = append(lat, s.ms)
				units += s.units
				break
			}
		}
	}
	return lat, units
}

// phaseGroups lists each phase group's request classes and rate metric.
var phaseGroups = []struct {
	name     string
	classes  []string
	rate     string
	rateUnit string
}{
	{"ingest", []string{"ingest"}, "ingest_edges_per_s", "edges/s"},
	{"topk", []string{"topk_1k", "topk_10k"}, "topk_qps", "1/s"},
}

// timings returns the timed end-to-end metrics — each group's rate and
// each class's p50 and p90 — over the quiet seconds of each group's
// phases, or over all of them when all is set, with the seconds and
// samples they cover. A class with no request in the quiet seconds
// (never seen: they span at least a third of the phase) falls back to
// all of its requests.
func (r *recorder) timings(all bool) (metrics, map[string]any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := metrics{}
	cover := map[string]any{}
	for _, g := range phaseGroups {
		ws := r.windows[g.name]
		kept := ws
		if !all {
			kept = quietWindows(ws)
		}
		var keptS, totalS, stolen float64
		for _, w := range kept {
			keptS += w.seconds()
		}
		for _, w := range ws {
			totalS += w.seconds()
			stolen += w.steal * w.seconds()
		}
		units := 0
		samples := map[string]int{}
		for _, c := range g.classes {
			lat, n := within(r.reqs[c], kept)
			units += n
			if len(lat) == 0 {
				lat, _ = within(r.reqs[c], ws)
			}
			samples[c] = len(lat)
			m.set(c+"_p50_ms", "ms", percentile(lat, 50))
			m.set(c+"_p90_ms", "ms", percentile(lat, 90))
		}
		m.set(g.rate, g.rateUnit, float64(units)/keptS)
		cover[g.name] = map[string]any{
			"seconds":      totalS,
			"kept_seconds": keptS,
			"steal":        stolen / totalS,
			"samples":      samples,
		}
	}
	return m, cover
}
