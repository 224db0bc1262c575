package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// passStat is what one child process cost.
type passStat struct {
	wall   time.Duration
	cpu    time.Duration // user + system
	maxRSS int64         // bytes, the last VmHWM read while it ran
}

// childAttr makes the kernel kill a child if the benchmark dies first, so
// no process outlives a run.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// execPass runs bin to completion and reports its wall time (exec to
// exit) and resource use. Its peak memory is polled from /proc while it
// runs: the rusage Maxrss of a child also counts the benchmark's own
// memory, which the child shares until its exec.
func execPass(ctx context.Context, bin string, args ...string) (passStat, error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.SysProcAttr = childAttr()
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return passStat{}, err
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	var hwm int64
	for {
		select {
		case <-tick.C:
			if v, err := peakRSS(cmd.Process.Pid); err == nil {
				hwm = max(hwm, v)
			}
			continue
		case err := <-done:
			wall := time.Since(start)
			if err != nil {
				return passStat{}, fmt.Errorf("%s %s: %v: %s", bin, strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
			}
			ps := cmd.ProcessState
			return passStat{wall: wall, cpu: ps.UserTime() + ps.SystemTime(), maxRSS: hwm}, nil
		}
	}
}

// peakRSS reads a live process's resident-set high-water mark.
func peakRSS(pid int) (int64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			return kb << 10, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// proc is one running fixserve process.
type proc struct {
	cmd  *exec.Cmd
	addr string // base URL
	log  *os.File
	done chan struct{} // closed once stdout is drained
	st   passStat      // filled by stop
}

// startServer execs fixserve with args plus a free loopback port, logs both
// output streams to logPath, and returns once it prints its listen address.
func startServer(ctx context.Context, bin, logPath string, args ...string) (*proc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append(args, "-addr", "127.0.0.1:0")...)
	cmd.SysProcAttr = childAttr()
	cmd.Stderr = logf
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	s := &proc{cmd: cmd, log: logf, done: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		defer close(s.done)
		sc := bufio.NewScanner(stdout)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if _, addr, ok := strings.Cut(line, "listening on "); ok && !sent {
				addrc <- addr
				sent = true
			}
		}
		_, _ = io.Copy(logf, stdout) // a line too long for the scanner
	}()
	select {
	case addr := <-addrc:
		s.addr = "http://" + strings.TrimSpace(addr)
		return s, nil
	case <-s.done:
		s.stop()
		return nil, fmt.Errorf("%s exited before listening; see %s", bin, logPath)
	case <-ctx.Done():
		s.stop()
		return nil, ctx.Err()
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, fmt.Errorf("%s did not listen within 30s; see %s", bin, logPath)
	}
}

// cpu reads the process's user+system time so far from /proc.
func (s *proc) cpu() (time.Duration, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(s.cmd.Process.Pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks of 1/100 s.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// stop reads the process's peak memory, sends SIGTERM, waits for the
// drain (killing after 20 s), and records its CPU time. It reports a
// non-zero exit.
func (s *proc) stop() error {
	if s.cmd.ProcessState != nil {
		return nil
	}
	hwm, _ := peakRSS(s.cmd.Process.Pid)      // 0 when it already exited
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // an already exited process is reaped below
	t := time.AfterFunc(20*time.Second, func() { _ = s.cmd.Process.Kill() })
	<-s.done
	err := s.cmd.Wait()
	t.Stop()
	s.log.Close()
	s.st = passStat{cpu: s.cmd.ProcessState.UserTime() + s.cmd.ProcessState.SystemTime(), maxRSS: hwm}
	if err != nil {
		return fmt.Errorf("%s: %v (log %s)", s.cmd.Path, err, s.log.Name())
	}
	return nil
}
