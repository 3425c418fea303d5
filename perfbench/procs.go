package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
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

// readyTimeout bounds how long a serving process may take to answer
// GET /v1/registry; a process that misses it fails the run.
const readyTimeout = 60 * time.Second

// stopTimeout is how long a SIGTERMed process may drain before it is
// killed.
const stopTimeout = 10 * time.Second

// child is one serving process the benchmark started.
type child struct {
	name string
	url  string
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been waited for
	err  error         // Wait's result, valid after done
	log  *tailBuffer
}

// reaper owns every child process: stopAll stops and waits for each,
// and is called on every exit path, a signal included.
type reaper struct {
	mu       sync.Mutex
	children []*child
	closed   bool
}

var procs = &reaper{}

// start execs bin with args as a serving process listening on a fresh
// loopback port (passed as -addr). The process dies with the
// benchmark even if the benchmark is killed outright.
func (r *reaper) start(name, bin string, args ...string) (*child, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	c := &child{name: name, url: "http://" + addr, cmd: cmd, done: make(chan struct{}), log: &tailBuffer{max: 4096}}
	cmd.Stdout, cmd.Stderr = c.log, c.log
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, errors.New("benchmark is shutting down")
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", filepath.Base(bin), err)
	}
	r.children = append(r.children, c)
	go func() {
		c.err = cmd.Wait()
		close(c.done)
	}()
	return c, nil
}

// stop SIGTERMs the children (they drain and exit), kills any that
// outlive stopTimeout, and waits for every one.
func (r *reaper) stop(cs ...*child) {
	for _, c := range cs {
		_ = c.cmd.Process.Signal(syscall.SIGTERM) // already exited is fine
	}
	deadline := time.After(stopTimeout)
	for _, c := range cs {
		select {
		case <-c.done:
		case <-deadline:
			_ = c.cmd.Process.Kill()
			<-c.done
		}
	}
	r.mu.Lock()
	kept := r.children[:0]
	for _, c := range r.children {
		select {
		case <-c.done:
		default:
			kept = append(kept, c)
		}
	}
	r.children = kept
	r.mu.Unlock()
}

// stopAll stops every live child and refuses new ones.
func (r *reaper) stopAll() {
	r.mu.Lock()
	r.closed = true
	cs := append([]*child(nil), r.children...)
	r.mu.Unlock()
	r.stop(cs...)
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("picking a port: %w", err)
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// waitReady polls GET /v1/registry on c until it answers 200, c exits,
// or readyTimeout passes.
func waitReady(c *child) error {
	ctx, cancel := context.WithTimeout(context.Background(), readyTimeout)
	defer cancel()
	client := &http.Client{Timeout: time.Second}
	for {
		select {
		case <-c.done:
			return fmt.Errorf("%s exited before it was ready (%v): %s", c.name, c.err, c.log.String())
		case <-ctx.Done():
			return fmt.Errorf("%s not ready after %s: %s", c.name, readyTimeout, c.log.String())
		case <-time.After(5 * time.Millisecond):
		}
		resp, err := client.Get(c.url + "/v1/registry")
		if err != nil {
			continue
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return nil
		}
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB(c *child) (float64, error) {
	blob, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("reading %s status: %w", c.name, err)
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %s VmHWM %q: %w", c.name, rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s status has no VmHWM line", c.name)
}

// tailBuffer keeps the last max bytes written to it, for error
// messages about a child that failed.
type tailBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
	max int
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf.Write(p)
	if over := t.buf.Len() - t.max; over > 0 {
		t.buf.Next(over)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.TrimSpace(t.buf.String())
}

// startServer execs `serve -warm` with its default flags and returns
// it with the wall time from exec until it answers GET /v1/registry.
func startServer(bin string) (*child, time.Duration, error) {
	t0 := time.Now()
	c, err := procs.start("serve", filepath.Join(bin, "serve"), "-warm")
	if err != nil {
		return nil, 0, err
	}
	if err := waitReady(c); err != nil {
		procs.stop(c)
		return nil, 0, err
	}
	return c, time.Since(t0), nil
}
