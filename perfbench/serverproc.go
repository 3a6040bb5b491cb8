package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// procs tracks every server process the benchmark starts, so each is
// killed and waited for on every exit path.
type procs struct {
	mu   sync.Mutex
	live []*serverProc
}

func (p *procs) add(s *serverProc) {
	p.mu.Lock()
	p.live = append(p.live, s)
	p.mu.Unlock()
}

func (p *procs) killAll() {
	p.mu.Lock()
	live := p.live
	p.live = nil
	p.mu.Unlock()
	for _, s := range live {
		s.stop()
	}
}

// serverProc is one running lpserver.
type serverProc struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	logPath string
	done    chan struct{} // closed once the process has been reaped
	once    sync.Once
}

// bootTimeout bounds one server start, recovery included.
const bootTimeout = 120 * time.Second

// startServer boots lpserver with its default flags plus -wal-dir and
// returns once GET /healthz answers 200 — the server recovers its log
// before it listens, so the returned duration is boot plus recovery.
func startServer(cfg *config, ps *procs, walDir, name string) (*serverProc, time.Duration, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		s, d, err := tryStart(cfg, ps, walDir, fmt.Sprintf("%s-%d", name, attempt))
		if err == nil {
			return s, d, nil
		}
		lastErr = err
	}
	return nil, 0, lastErr
}

func tryStart(cfg *config, ps *procs, walDir, name string) (*serverProc, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	logPath := filepath.Join(cfg.workdir, name+".log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	cmd := exec.Command(cfg.server, "-addr", addr, "-wal-dir", walDir)
	cmd.Stdout, cmd.Stderr = logf, logf
	s := &serverProc{cmd: cmd, base: "http://" + addr, logPath: logPath, done: make(chan struct{})}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start lpserver: %w", err)
	}
	go func() {
		_ = cmd.Wait() // the exit status of a killed server carries no information
		close(s.done)
	}()
	ps.add(s)
	probe := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := start.Add(bootTimeout)
	for time.Now().Before(deadline) {
		select {
		case <-s.done:
			return nil, 0, fmt.Errorf("lpserver exited during boot: %s", s.logTail())
		default:
		}
		resp, err := probe.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		time.Sleep(500 * time.Microsecond)
	}
	s.stop()
	return nil, 0, fmt.Errorf("lpserver not healthy after %v: %s", bootTimeout, s.logTail())
}

// stop kills the server (SIGKILL: no shutdown checkpoint, so the WAL
// stays as the run left it) and waits until it has exited.
func (s *serverProc) stop() {
	s.once.Do(func() {
		if s.cmd.Process != nil {
			_ = s.cmd.Process.Kill() // fails only if it already exited; done is closed then
		}
		<-s.done
	})
}

// peakRSSMB reads the server's resident-set high-water mark.
func (s *serverProc) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("read server status: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in server status")
}

// scrapedCounts maps the server-side counts recorded per run to their
// keys in GET /metrics?format=expvar.
var scrapedCounts = map[string]string{
	"wal.fsyncs":                "wal.fsyncs",
	"wal.appends":               "wal.appends",
	"core.pipeline_stalls":      "predictor.pipeline.stalls",
	"core.pipeline_owner_parks": "predictor.pipeline.owner_parks",
	"wal.replayed_edges":        "recovery.replayed_edges",
	"server.edges_ingested":     "ingest.edges",
}

// scrape reads the public metrics endpoint — a call from outside, not
// tracing — and returns the counts in scrapedCounts.
func (s *serverProc) scrape() (metrics, error) {
	var flat map[string]any
	if err := getJSON(s.base+"/metrics?format=expvar", &flat); err != nil {
		return nil, err
	}
	out := metrics{}
	for name, key := range scrapedCounts {
		v, ok := flat[key].(float64)
		if !ok {
			return nil, fmt.Errorf("/metrics lacks %s", key)
		}
		out.set(name, "count", v)
	}
	return out, nil
}

// numEdges reads the server's edge count from GET /stats.
func (s *serverProc) numEdges() (int64, error) {
	var st struct {
		Edges int64 `json:"edges"`
	}
	err := getJSON(s.base+"/stats", &st)
	return st.Edges, err
}

func getJSON(url string, v any) error {
	c := &http.Client{Timeout: 30 * time.Second}
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (s *serverProc) logTail() string {
	b, _ := os.ReadFile(s.logPath) // best effort: the log only decorates an error
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return strings.TrimSpace(string(b))
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("pick a port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}
