package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"testing"
	"time"
)

// buildBinaries compiles pimfarm and this benchmark into a temporary
// directory.
func buildBinaries(t *testing.T) (dir string) {
	t.Helper()
	dir = t.TempDir()
	for _, b := range [][]string{
		{"build", "-o", filepath.Join(dir, "pimfarm"), "repro/cmd/pimfarm"},
		{"build", "-o", filepath.Join(dir, "perfbench"), "."},
	} {
		out, err := exec.Command("go", b...).CombinedOutput()
		if err != nil {
			t.Fatalf("go %v: %v\n%s", b, err, out)
		}
	}
	return dir
}

// processesOf lists live processes running the given executable.
func processesOf(exe string) []int {
	ents, _ := os.ReadDir("/proc") // always readable on Linux
	var out []int
	for _, e := range ents {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		if target, err := os.Readlink(filepath.Join("/proc", e.Name(), "exe")); err == nil && target == exe {
			out = append(out, pid)
		}
	}
	return out
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func assertClean(t *testing.T, pimfarm, work string) {
	t.Helper()
	if pids := processesOf(pimfarm); len(pids) > 0 {
		for _, pid := range pids {
			_ = syscall.Kill(pid, syscall.SIGKILL)
		}
		t.Fatalf("pimfarm processes survived: %v", pids)
	}
	if left, _ := filepath.Glob(filepath.Join(work, "serve-*")); len(left) > 0 {
		t.Fatalf("temporary store/journal left behind: %v", left)
	}
}

// A serve-dist run that fails midway (here: its context ends during the
// cluster warm-up) leaves no pimfarm process and no temporary files.
func TestNoProcessSurvivesFailedRun(t *testing.T) {
	bin := buildBinaries(t)
	pimfarm := filepath.Join(bin, "pimfarm")
	ref, err := loadReference("reference.json")
	if err != nil {
		t.Fatal(err)
	}
	work := t.TempDir()
	sw := &serveWorkload{bin: pimfarm, workRoot: work, ref: ref, log: io.Discard, rate: serveRate}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		for len(processesOf(pimfarm)) < 1+clusterWorkers && ctx.Err() == nil {
			time.Sleep(20 * time.Millisecond)
		}
		time.Sleep(500 * time.Millisecond)
		cancel()
	}()
	if _, err := sw.run(ctx, 1, 20); !errors.Is(err, context.Canceled) {
		t.Fatalf("run error = %v, want context.Canceled", err)
	}
	assertClean(t, pimfarm, work)
}

// panicLog panics on the first write to it.
type panicLog struct{}

func (panicLog) Write([]byte) (int, error) { panic("injected failure") }

// A serve-dist run that panics midway leaves no pimfarm process and no
// temporary files. The run's first log line comes after the load (or
// during warm-up, if a game reached only one worker), so the panic hits
// with the cluster up.
func TestNoProcessSurvivesPanic(t *testing.T) {
	bin := buildBinaries(t)
	pimfarm := filepath.Join(bin, "pimfarm")
	ref, err := loadReference("reference.json")
	if err != nil {
		t.Fatal(err)
	}
	work := t.TempDir()
	sw := &serveWorkload{bin: pimfarm, workRoot: work, ref: ref, log: panicLog{}, rate: serveRate}
	func() {
		defer func() {
			if p := recover(); p == nil {
				t.Fatal("run did not panic")
			}
		}()
		_, _ = sw.run(context.Background(), 1, 1)
	}()
	assertClean(t, pimfarm, work)
}

// SIGTERM (the cleanup path) and SIGKILL (no cleanup at all; Pdeathsig
// takes the servers down) both leave no pimfarm process behind.
func TestNoProcessSurvivesSignal(t *testing.T) {
	bin := buildBinaries(t)
	pimfarm := filepath.Join(bin, "pimfarm")
	refPath, err := filepath.Abs("reference.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, sig := range []syscall.Signal{syscall.SIGTERM, syscall.SIGKILL} {
		t.Run(sig.String(), func(t *testing.T) {
			work := t.TempDir()
			var stdout bytes.Buffer
			cmd := exec.Command(filepath.Join(bin, "perfbench"), "-workload", "serve-dist",
				"-seconds", "20", "-bin", bin, "-work", work, "-reference", refPath)
			cmd.Stdout = &stdout
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "the cluster to start", func() bool { return len(processesOf(pimfarm)) == 1+clusterWorkers })
			pids := processesOf(pimfarm)
			time.Sleep(time.Second)
			if err := cmd.Process.Signal(sig); err != nil {
				t.Fatal(err)
			}
			err := cmd.Wait()
			if err == nil {
				t.Fatal("interrupted run exited 0")
			}
			if stdout.Len() > 0 {
				t.Fatalf("interrupted run printed a result: %s", stdout.String())
			}
			// Gone means reaped, not merely exited: no /proc entry is left.
			waitFor(t, "the servers to be reaped", func() bool {
				for _, pid := range pids {
					if _, err := os.Stat(filepath.Join("/proc", strconv.Itoa(pid))); err == nil {
						return false
					}
				}
				return true
			})
			if sig == syscall.SIGTERM {
				assertClean(t, pimfarm, work)
			}
		})
	}
}
