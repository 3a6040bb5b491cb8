// Command perfbench is the repository's end-to-end benchmark. It drives
// a real lpserver over loopback HTTP with the server's default flags
// plus -wal-dir, checks that the answers are correct, and prints one
// JSON result line. With -trace 1 it also feeds the same generated
// inputs in process through each layer's public functions and reports
// per-layer figures. README.md lists the workloads, why each exists,
// which metric each layer figure should move, and what is not covered.
//
// Usage (from the repository root, after building; see run.sh):
//
//	perfbench -server .bench_build/lpserver -workload ingest -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metrics maps metric names to their values and units.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// config is what every workload receives.
type config struct {
	workload string
	server   string // lpserver binary
	workdir  string // scratch directory for logs and WAL directories, removed at exit
	seed     uint64
	seconds  float64
	trace    bool
}

// outcome is what a server run reports back to main.
type outcome struct {
	e2e       metrics  // every end_to_end metric BENCHMARK.json declares
	scraped   metrics  // server-side counts from GET /metrics
	lagP99ms  float64  // load generator lateness, p99
	gateErrs  []string // failed correctness gates
	attempted int64
	failed    int64
	info      map[string]any // sample counts and other context, printed before the result
	traceIn   traceInput     // what the traced in-process run replays
}

var workloads = map[string]func(*config, *procs) (*outcome, error){
	"ingest": runIngest,
	"query":  runQuery,
	"mixed":  runMixed,
}

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "ingest | query | mixed")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := fs.Float64("seconds", 10, "measured time of one run")
	trace := fs.Int("trace", 0, "1 adds the traced in-process run and reports per-layer metrics instead of end-to-end ones")
	server := fs.String("server", ".bench_build/lpserver", "lpserver binary")
	workdir := fs.String("workdir", ".bench_run", "scratch directory (a per-run subdirectory is removed at exit)")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark declaration whose metric names and units a run must report")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	wl, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload ingest|query|mixed, -seconds > 0, -trace 0|1\n")
		return 2
	}
	if _, err := os.Stat(*server); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: server binary: %v\n", err)
		return 2
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	dir := filepath.Join(*workdir, fmt.Sprintf("%s-%d", *workload, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	cfg := &config{workload: *workload, server: *server, workdir: dir, seed: *seed, seconds: *seconds, trace: *trace == 1}

	ps := &procs{}
	defer ps.killAll()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		ps.killAll()
		os.RemoveAll(dir)
		os.Exit(130)
	}()

	printLine(map[string]any{"env": stamp(*workload, sp.why(*workload), *seed)})
	hostBefore := hostSpeed()
	out, err := wl(cfg, ps)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	out.info["host_before"], out.info["host_after"] = hostBefore, hostSpeed()
	printLine(map[string]any{"info": out.info, "server_counts": out.scraped, "gates_failed": out.gateErrs})
	res := result{
		Correct:   len(out.gateErrs) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.e2e,
	}
	if cfg.trace {
		layers, err := traceLayers(cfg, &out.traceIn)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: traced run: %v\n", err)
			return 1
		}
		for k, v := range out.scraped {
			layers[k] = v
		}
		layers.set("loadgen.lag_p99_ms", "ms", out.lagP99ms)
		res.Metrics = layers
	}
	if err := checkNames(res.Metrics, sp.units(cfg.trace)); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	printLine(res)
	return 0
}

// spec is the part of BENCHMARK.json a run checks itself against.
type spec struct {
	Workloads []struct{ Name, Why string }  `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, nil
}

// why returns the declared reason a workload exists.
func (sp *spec) why(workload string) string {
	for _, w := range sp.Workloads {
		if w.Name == workload {
			return w.Why
		}
	}
	return ""
}

// units returns the declared metric names and units: an untraced run
// must report exactly the end_to_end set, a traced run exactly the
// per_layer set.
func (sp *spec) units(traced bool) map[string]string {
	list := sp.EndToEnd
	if traced {
		list = sp.PerLayer
	}
	units := make(map[string]string, len(list))
	for _, m := range list {
		units[m.Name] = m.Unit
	}
	return units
}

// checkNames reports every difference between the reported metrics
// and the declared ones.
func checkNames(m metrics, want map[string]string) error {
	var errs []error
	for name, unit := range want {
		got, ok := m[name]
		switch {
		case !ok:
			errs = append(errs, fmt.Errorf("metric %s not reported", name))
		case got.Unit != unit:
			errs = append(errs, fmt.Errorf("metric %s reported in %s, declared in %s", name, got.Unit, unit))
		}
	}
	for name := range m {
		if _, ok := want[name]; !ok {
			errs = append(errs, fmt.Errorf("metric %s not declared", name))
		}
	}
	return errors.Join(errs...)
}

// logf reports progress on standard error, stamped with the time since
// the run started.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench %7.2fs: %s\n", time.Since(runStart).Seconds(), fmt.Sprintf(format, args...))
}

var runStart = time.Now()

func printLine(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode: %v\n", err)
		return
	}
	fmt.Println(string(b))
}
