package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Every process the benchmark starts is reaped on every path: a
// cancelled or timed-out child gets SIGTERM, then SIGKILL after a
// grace period, and the parent waits for it either way. Pdeathsig
// takes the children down if the benchmark itself is killed.

const (
	buildTimeout = 150 * time.Second
	termGrace    = 5 * time.Second
)

// procUsage is what the kernel reports about one finished process.
type procUsage struct {
	wall time.Duration
	cpu  time.Duration // user + system
}

// runProcess runs argv to completion in a fresh process and returns
// its wall time and CPU time.
func runProcess(ctx context.Context, argv []string, stderr io.Writer) (procUsage, error) {
	ctx, cancel := context.WithTimeout(ctx, buildTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, argv[0], argv[1:]...)
	cmd.Stdout = stderr
	cmd.Stderr = stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = termGrace
	t0 := time.Now()
	err := cmd.Run()
	u := procUsage{wall: time.Since(t0)}
	if st := cmd.ProcessState; st != nil {
		u.cpu = st.UserTime() + st.SystemTime()
	}
	if err != nil && ctx.Err() != nil {
		err = fmt.Errorf("%w (%v)", err, ctx.Err())
	}
	return u, err
}

// daemon is a cmod process serving a CAS store.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{}
}

// startDaemon starts cmod with a CAS store in casDir on a free
// loopback port and waits until it answers /healthz.
func startDaemon(ctx context.Context, bin, casDir string, stderr io.Writer) (*daemon, error) {
	if bin == "" {
		return nil, errors.New("remote workloads need -cmod")
	}
	addr, err := freeLoopbackAddr()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", addr, "-cas-dir", casDir,
		// Room for every round's namespace: eviction would turn fills
		// into misses for reasons that have nothing to do with the client.
		"-cas-max-bytes", strconv.Itoa(4<<30))
	cmd.Stdout = stderr
	cmd.Stderr = stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, url: "http://" + addr, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a drained daemon carries nothing
		close(d.done)
	}()
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(d.url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.done:
			return nil, errors.New("cmod exited during start-up")
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("cmod did not become healthy")
		}
	}
}

// stop drains the daemon with SIGTERM, kills it if the drain does not
// finish within the grace period, and returns once it has exited.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-d.done:
	case <-time.After(2 * termGrace):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// casCounters scrapes the daemon's cmod_cas_* series from /metrics.
func (d *daemon) casCounters() (map[string]float64, error) {
	resp, err := http.Get(d.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "cmod_cas_") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.Contains(name, "{") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return nil, fmt.Errorf("metric %s: %w", name, err)
		}
		out[name] = v
	}
	return out, sc.Err()
}

func freeLoopbackAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}
