package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// stamp describes where and on what a result was measured.
func stamp(workload, why string, seed uint64) map[string]any {
	return map[string]any{
		"workload":       workload,
		"why":            why,
		"seed":           seed,
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"env_gomaxprocs": os.Getenv("GOMAXPROCS"),
		"go":             runtime.Version(),
		"goarch":         runtime.GOARCH,
		"commit":         gitCommit("."),
		"source_sha256":  sourceDigest("."),
	}
}

// gitCommit reads HEAD from root/.git without running git, so it never
// looks outside the checkout. A checkout without .git yields "" — the
// source digest identifies the code then.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return ""
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return ""
}

// sourceDigest hashes every Go source and module file under root (in
// path order, skipping hidden directories such as the build outputs),
// identifying the code measured even where no commit is available.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || strings.HasSuffix(p, ".s") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		h.Write([]byte(p))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hostSpeed times a fixed integer loop and a fixed random walk over
// 64 MiB. Stamped at the start and end of a run, it tells results
// taken while the shared host was slow from those taken while it was
// fast.
func hostSpeed() map[string]float64 {
	const loops, walks = 20_000_000, 2_000_000
	t0 := time.Now()
	x := uint64(1)
	for i := 0; i < loops; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	cpu := time.Since(t0)
	buf := make([]uint64, 8<<20)
	for i := range buf {
		buf[i] = uint64(i)
	}
	t0 = time.Now()
	for i := 0; i < walks; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		x += buf[x>>41]
	}
	mem := time.Since(t0)
	sink = x
	steal, total := cpuTicks()
	return map[string]float64{
		"cpu_ns_per_op": float64(cpu) / loops,
		"mem_ns_per_op": float64(mem) / walks,
		"steal_ticks":   steal,
		"total_ticks":   total,
	}
}

// cpuTicks returns the host's stolen and total CPU ticks from
// /proc/stat (zeros where it cannot be read): the steal share between
// two readings is how much CPU the hypervisor gave other guests.
func cpuTicks() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

var sink uint64

// quietClient keeps the benchmark's own garbage collector from running
// while it measures — on a 2-core host a collection of the client's
// inputs would take CPU from the server. A memory limit above the live
// heap remains as a safety net. The returned function restores the
// collector.
func quietClient() (restore func()) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	percent := debug.SetGCPercent(-1)
	limit := debug.SetMemoryLimit(int64(ms.HeapAlloc) + 1<<30)
	return func() {
		debug.SetGCPercent(percent)
		debug.SetMemoryLimit(limit)
	}
}
