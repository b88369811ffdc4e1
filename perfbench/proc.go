package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// cluster is the README deployment: one `pimfarm -dist -journal -store`
// coordinator and two `pimfarm worker -store` processes sharing a fresh
// store. Every process runs in its own process group with
// Pdeathsig=SIGKILL, so it dies with the benchmark even when the benchmark
// itself is killed; Close kills and reaps them and removes the store and
// journal.
type cluster struct {
	base  string // coordinator base URL
	dir   string // holds store/, journal/ and the process logs
	procs []*exec.Cmd

	closeOnce sync.Once
}

// clusterWorkers is the README's worker count.
const clusterWorkers = 2

// startCluster spawns the cluster under workRoot and waits until the
// coordinator answers /healthz and both workers are live. On error every
// process already started is stopped again.
func startCluster(ctx context.Context, bin, workRoot string, traceSample float64) (*cluster, error) {
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workRoot, "serve-")
	if err != nil {
		return nil, err
	}
	c := &cluster{dir: dir}
	// Stop what has started on an error or a panic before the cluster is
	// handed to the caller.
	ready := false
	defer func() {
		if !ready {
			c.Close()
		}
	}()
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	c.base = "http://" + addr
	store, journal := filepath.Join(dir, "store"), filepath.Join(dir, "journal")
	if err := c.spawn(bin, "coordinator", "-addr", addr, "-dist", "-journal", journal, "-store", store,
		"-pprof", "-trace-sample", strconv.FormatFloat(traceSample, 'g', -1, 64)); err != nil {
		return nil, err
	}
	for i := 0; i < clusterWorkers; i++ {
		if err := c.spawn(bin, fmt.Sprintf("worker%d", i+1), "worker", "-coordinator", c.base,
			"-store", store, "-id", fmt.Sprintf("w%d", i+1)); err != nil {
			return nil, err
		}
	}
	if err := c.waitReady(ctx, 30*time.Second); err != nil {
		return nil, err
	}
	ready = true
	return c, nil
}

func (c *cluster) spawn(bin, name string, args ...string) error {
	logf, err := os.Create(filepath.Join(c.dir, name+".log"))
	if err != nil {
		return err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start %s: %w", name, err)
	}
	c.procs = append(c.procs, cmd)
	return nil
}

// waitReady polls until /healthz is OK and every worker is live.
func (c *cluster) waitReady(ctx context.Context, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	client := &http.Client{Timeout: time.Second}
	for {
		if c.ready(client) {
			return nil
		}
		if c.exited() {
			return fmt.Errorf("a pimfarm process exited during start-up:\n%s", c.logTail())
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("cluster not ready: %w\n%s", ctx.Err(), c.logTail())
		case <-time.After(20 * time.Millisecond):
		}
	}
}

func (c *cluster) ready(client *http.Client) bool {
	resp, err := client.Get(c.base + "/healthz")
	if err != nil {
		return false
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	var w struct {
		Workers []struct {
			Live bool `json:"live"`
		} `json:"workers"`
	}
	if err := getJSON(client, c.base+"/v1/workers", &w); err != nil {
		return false
	}
	live := 0
	for _, x := range w.Workers {
		if x.Live {
			live++
		}
	}
	return live >= clusterWorkers
}

// exited reports whether any process has exited (it is gone or a
// zombie awaiting the reap in Close).
func (c *cluster) exited() bool {
	for _, p := range c.procs {
		if f, err := procStat(p.Process.Pid); err != nil || f[0] == "Z" {
			return true
		}
	}
	return false
}

// pids lists the cluster's process IDs (coordinator first).
func (c *cluster) pids() []int {
	out := make([]int, len(c.procs))
	for i, p := range c.procs {
		out[i] = p.Process.Pid
	}
	return out
}

// Close kills every process group, reaps every process and removes the
// store, journal and logs. It is safe to call more than once.
func (c *cluster) Close() {
	c.closeOnce.Do(func() {
		for _, p := range c.procs {
			_ = syscall.Kill(-p.Process.Pid, syscall.SIGKILL) // the group may be gone already
		}
		for _, p := range c.procs {
			_ = p.Wait() // a killed process reports "signal: killed"
		}
		if c.dir != "" {
			_ = os.RemoveAll(c.dir)
		}
	})
}

// workerGames reports, per worker log, the games the worker has leased
// jobs for (from its "leased ... label=<game>@WxH/..." lines).
func (c *cluster) workerGames() (map[string]map[string]bool, error) {
	out := map[string]map[string]bool{}
	for i := 1; i <= clusterWorkers; i++ {
		name := fmt.Sprintf("worker%d", i)
		data, err := os.ReadFile(filepath.Join(c.dir, name+".log"))
		if err != nil {
			return nil, err
		}
		seen := map[string]bool{}
		for _, line := range strings.Split(string(data), "\n") {
			if !strings.Contains(line, "leased") {
				continue
			}
			if _, label, ok := strings.Cut(line, "label="); ok {
				game, _, _ := strings.Cut(strings.TrimLeft(label, `"`), "@")
				seen[game] = true
			}
		}
		out[name] = seen
	}
	return out, nil
}

// logTail returns the last lines of every process log, for error reports.
func (c *cluster) logTail() string {
	var b strings.Builder
	logs, _ := filepath.Glob(filepath.Join(c.dir, "*.log"))
	for _, l := range logs {
		data, _ := os.ReadFile(l)
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(lines) > 8 {
			lines = lines[len(lines)-8:]
		}
		fmt.Fprintf(&b, "--- %s\n%s\n", filepath.Base(l), strings.Join(lines, "\n"))
	}
	return b.String()
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// procStat returns the fields of /proc/<pid>/stat after the command
// name, starting with the state (field 3 of the whole line).
func procStat(pid int) ([]string, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return nil, err
	}
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return nil, fmt.Errorf("short /proc/%d/stat", pid)
	}
	return f, nil
}

// procCPU returns a process's user plus system CPU time from /proc.
func procCPU(pid int) (time.Duration, error) {
	f, err := procStat(pid)
	if err != nil {
		return 0, err
	}
	// utime and stime are fields 14 and 15 of the whole line.
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	const clkTck = 100 // USER_HZ on Linux
	return time.Duration(ut+st) * time.Second / clkTck, nil
}

// peakRSSMB returns a process's VmHWM in MB (0 when unreadable).
func peakRSSMB(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, v)
}
