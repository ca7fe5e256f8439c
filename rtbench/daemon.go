package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one rtetherd child process on ephemeral loopback ports.
type daemon struct {
	cmd      *exec.Cmd
	httpAddr string
	binAddr  string
	exited   chan struct{} // closed once Wait has returned
	waitErr  error
}

// startDaemon launches rtetherd on the topology document and returns
// once both listeners answer.
func startDaemon(bin, scenario string) (*daemon, error) {
	cmd := exec.Command(bin, "-scenario", scenario, "-addr", "127.0.0.1:0", "-binaddr", "127.0.0.1:0", "-quiet")
	cmd.Stderr = os.Stderr
	// The daemon must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	addrs := make(chan [2]string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		var h, b string
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, " on http://"); i >= 0 && h == "" {
				h = line[i+len(" on http://"):]
			}
			if i := strings.Index(line, "binary protocol on "); i >= 0 {
				b = line[i+len("binary protocol on "):]
			}
			if h != "" && b != "" {
				addrs <- [2]string{h, b}
				h = "-" // report once
			}
		}
		_, _ = io.Copy(io.Discard, out)
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	select {
	case a := <-addrs:
		d.httpAddr, d.binAddr = a[0], a[1]
	case <-d.exited:
		return nil, fmt.Errorf("rtetherd exited before serving: %v", d.waitErr)
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("rtetherd did not report its listeners within 30s")
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get("http://" + d.httpAddr + "/v1/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("rtetherd not healthy within 30s: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop asks the daemon to drain and exit, killing it if it does not
// within ten seconds, and waits until it has.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux architecture Go supports.
const clockTicks = 100

// cpu returns the daemon's user+system CPU time so far.
func (d *daemon) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat line %q", s)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// peakRSS returns the daemon's peak resident set size in bytes.
func (d *daemon) peakRSS() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb << 10, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
