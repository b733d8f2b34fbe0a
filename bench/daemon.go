package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
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

// buildDaemon compiles ./cmd/gippr-serve from the checkout at root into
// bin and returns the binary's path. It is never timed.
func buildDaemon(ctx context.Context, root, bin string) (string, error) {
	out := filepath.Join(bin, "gippr-serve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", out, "./cmd/gippr-serve")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build gippr-serve: %v\n%s", err, msg)
	}
	return out, nil
}

// daemon is one running gippr-serve process. Every daemon the benchmark
// starts is registered in live until stop has waited for it, so an early
// exit can still kill and reap it.
type daemon struct {
	cmd    *exec.Cmd
	dir    string
	addr   string
	start  time.Time     // just before exec
	ready  time.Duration // exec -> first /healthz 200
	exited chan struct{} // closed once Wait returns
	err    error         // Wait's result, valid after exited closes
}

var live sync.Map // *daemon -> struct{}

// killAll kills and reaps every daemon not yet stopped.
func killAll() {
	live.Range(func(k, _ any) bool {
		d := k.(*daemon)
		d.cmd.Process.Kill() //nolint:errcheck // already exiting is fine
		<-d.exited
		live.Delete(d)
		return true
	})
}

// startDaemon execs the daemon with the benchmark's fixed configuration:
// default scale (or records references per phase when records > 0), an
// ephemeral port, and a result store, HOME, TMPDIR and XDG_CACHE_HOME
// inside dir, so anything the daemon persists lives and dies with the run.
// It returns once /healthz answers 200.
func startDaemon(ctx context.Context, bin, dir string, records int) (*daemon, error) {
	home := filepath.Join(dir, "home")
	tmp := filepath.Join(dir, "tmp")
	for _, p := range []string{home, tmp} {
		if err := os.MkdirAll(p, 0o755); err != nil {
			return nil, err
		}
	}
	addrFile := filepath.Join(dir, "addr")
	if err := os.Remove(addrFile); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	args := []string{"-scale", "default", "-addr", "localhost:0", "-addr-file", addrFile,
		"-store", filepath.Join(dir, "store")}
	if records > 0 {
		args = append(args, "-records", strconv.Itoa(records))
	}
	logf, err := os.OpenFile(filepath.Join(dir, "daemon.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, args...)
	cmd.Env = []string{"PATH=" + os.Getenv("PATH"), "HOME=" + home, "TMPDIR=" + tmp,
		"XDG_CACHE_HOME=" + filepath.Join(home, ".cache")}
	cmd.Stdout, cmd.Stderr = logf, logf
	// Should the benchmark itself be killed, the kernel kills the daemon.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, dir: dir, exited: make(chan struct{})}
	d.start = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start gippr-serve: %w", err)
	}
	live.Store(d, struct{}{})
	go func() {
		d.err = cmd.Wait()
		close(d.exited)
	}()
	if err := d.awaitHealthy(ctx); err != nil {
		d.stop() //nolint:errcheck // the health failure is the error to report
		return nil, fmt.Errorf("%w\n%s", err, d.logTail())
	}
	return d, nil
}

// awaitHealthy polls for the bound address, then for /healthz 200, and
// records the time since exec.
func (d *daemon) awaitHealthy(ctx context.Context) error {
	deadline := time.Now().Add(60 * time.Second)
	hc := &http.Client{Timeout: 2 * time.Second}
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return fmt.Errorf("gippr-serve exited before becoming healthy: %v", d.err)
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if d.addr == "" {
			if b, err := os.ReadFile(filepath.Join(d.dir, "addr")); err == nil && len(b) > 0 {
				d.addr = strings.TrimSpace(string(b))
			}
		}
		if d.addr != "" {
			resp, err := hc.Get("http://" + d.addr + "/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					d.ready = time.Since(d.start)
					return nil
				}
			}
		}
		time.Sleep(100 * time.Microsecond) // a set-up takes a few ms
	}
	return errors.New("gippr-serve did not become healthy within 60s")
}

// stop sends SIGTERM (the daemon's graceful drain), waits for the process
// and reports a non-zero exit as an error. A daemon still running after
// 60 seconds is killed.
func (d *daemon) stop() error {
	defer live.Delete(d)
	d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // an exited process is handled below
	select {
	case <-d.exited:
	case <-time.After(60 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck // escalation after a stuck drain
		<-d.exited
		return errors.New("gippr-serve did not drain within 60s")
	}
	if d.err != nil {
		return fmt.Errorf("gippr-serve exit: %v\n%s", d.err, d.logTail())
	}
	return nil
}

// logTail returns the last lines of the daemon's log for error reports.
func (d *daemon) logTail() string {
	b, _ := os.ReadFile(filepath.Join(d.dir, "daemon.log"))
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > 10 {
		lines = lines[len(lines)-10:]
	}
	return strings.Join(lines, "\n")
}

// peakRSSMB reads the daemon's VmHWM (peak resident set) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
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
	return 0, errors.New("no VmHWM in /proc status")
}
