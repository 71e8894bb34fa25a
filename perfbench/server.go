package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one `llm4eda serve` child process on a kernel-chosen port.
type server struct {
	cmd   *exec.Cmd
	base  string      // http://127.0.0.1:<port>
	lines chan string // the child's stdout, closed at its EOF
	start time.Time
	setup time.Duration
	http  *http.Client
}

// startServer spawns `serve` with default options on 127.0.0.1:0, reads
// the address from its "listening on" banner and polls /v1/stats until it
// answers. setup is the time from spawn to the first stats reply. The
// child's stderr (its job log) goes to logPath.
func startServer(bin, logPath string) (*server, error) {
	if err := os.MkdirAll(filepath.Dir(logPath), 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, "serve", "-addr", "127.0.0.1:0")
	cmd.Stderr = logf
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start serve: %w", err)
	}
	// serve prints a handful of lines over its life; the buffer holds them
	// all, so the reader never blocks on a caller that stopped listening.
	s := &server{cmd: cmd, lines: make(chan string, 64), start: start,
		http: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}}
	go func() {
		defer close(s.lines)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			s.lines <- sc.Text()
		}
	}()
	if err := s.awaitReady(start); err != nil {
		s.kill()
		return nil, err
	}
	s.setup = time.Since(start)
	return s, nil
}

func (s *server) awaitReady(start time.Time) error {
	deadline := time.After(30 * time.Second)
	for s.base == "" {
		select {
		case line, ok := <-s.lines:
			if !ok {
				return fmt.Errorf("serve exited before its banner")
			}
			if _, rest, found := strings.Cut(line, "listening on "); found {
				s.base, _, _ = strings.Cut(rest, " ")
			}
		case <-deadline:
			return fmt.Errorf("no serve banner after 30s")
		}
	}
	for {
		if _, err := s.stats(); err == nil {
			return nil
		}
		if time.Since(start) > 30*time.Second {
			return fmt.Errorf("serve at %s: /v1/stats did not answer within 30s", s.base)
		}
		time.Sleep(time.Millisecond)
	}
}

// vmHWMMB reads VmHWM of /proc/<pid> ("self" for this process) in MB.
func vmHWMMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// stop sends SIGTERM and requires serve's clean-drain marker before its
// exit. The child is killed if it has not exited within 60s.
func (s *server) stop() error {
	// serve installs its signal handler just after printing its banner; a
	// SIGTERM in that gap kills it without a drain. A server is given at
	// least minLife before it is stopped.
	const minLife = 50 * time.Millisecond
	time.Sleep(minLife - time.Since(s.start))
	s.http.CloseIdleConnections()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return fmt.Errorf("signal serve: %w", err)
	}
	drained := false
	timeout := time.After(60 * time.Second)
	for {
		select {
		case line, ok := <-s.lines:
			if !ok {
				err := s.cmd.Wait()
				if err == nil && !drained {
					err = fmt.Errorf("serve exited without the \"drained, bye\" marker")
				}
				return err
			}
			if strings.HasSuffix(line, "drained, bye") {
				drained = true
			}
		case <-timeout:
			s.kill()
			return fmt.Errorf("serve did not exit within 60s of SIGTERM")
		}
	}
}

// kill ends the child without a drain and waits for it.
func (s *server) kill() {
	_ = s.cmd.Process.Kill() // already exited is fine
	for range s.lines {
	}
	_ = s.cmd.Wait() // the kill is the reported failure, not the exit status
}

// statsReply is the part of /v1/stats the benchmark reads.
type statsReply struct {
	Rejected    uint64 `json:"rejected"`
	ReportCache struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"report_cache"`
	Farm farmStats `json:"farm"`
}

// farmStats mirrors the simulation farm's counters as /v1/stats encodes them.
type farmStats struct {
	Parses, Designs, Results, Lints cacheStats
	LintRejects                     int64
	VM                              struct{ SuperBlocks, TierAOps, TierBOps, GenericOps int64 }
}

type cacheStats struct{ Hits, Misses, Computes uint64 }

func (s *server) stats() (*statsReply, error) {
	resp, err := s.http.Get(s.base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/v1/stats: %s", resp.Status)
	}
	var st statsReply
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("/v1/stats: %w", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	return &st, nil
}

// sub returns the counters of s minus those of an earlier snapshot.
func (s farmStats) sub(e farmStats) farmStats {
	d := func(a, b cacheStats) cacheStats {
		return cacheStats{a.Hits - b.Hits, a.Misses - b.Misses, a.Computes - b.Computes}
	}
	out := farmStats{Parses: d(s.Parses, e.Parses), Designs: d(s.Designs, e.Designs),
		Results: d(s.Results, e.Results), Lints: d(s.Lints, e.Lints),
		LintRejects: s.LintRejects - e.LintRejects}
	out.VM.SuperBlocks = s.VM.SuperBlocks - e.VM.SuperBlocks
	out.VM.TierAOps = s.VM.TierAOps - e.VM.TierAOps
	out.VM.TierBOps = s.VM.TierBOps - e.VM.TierBOps
	out.VM.GenericOps = s.VM.GenericOps - e.VM.GenericOps
	return out
}
