package main

import (
	"bufio"
	"errors"
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

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat
// (100 on every Linux architecture Go supports).
const clockTicks = 100

// server is one servd process on loopback with its own journal and
// cache directory.
type server struct {
	cmd     *exec.Cmd
	base    string // "http://127.0.0.1:<port>"
	journal string
	exited  chan struct{}
}

// startServd launches servd with production-default flags plus a fresh
// -journal and -cache-dir under dir, so the journal, ATPG checkpoints
// (written next to the journal) and the cache disk tier are all live.
func startServd(bin, dir string) (*server, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &server{journal: filepath.Join(dir, "jobs.journal"), exited: make(chan struct{})}
	logf, err := os.Create(filepath.Join(dir, "servd.log"))
	if err != nil {
		return nil, err
	}
	s.cmd = exec.Command(bin, "-addr", "127.0.0.1:0",
		"-journal", s.journal, "-cache-dir", filepath.Join(dir, "cache"))
	s.cmd.Stderr = logf
	// servd must not outlive the benchmark, even one that is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := s.cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := s.cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start servd: %w", err)
	}
	addr := make(chan string, 1)
	go func() {
		defer close(s.exited)
		defer logf.Close()
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if a, ok := strings.CutPrefix(line, "servd listening on "); ok {
				addr <- a
			}
		}
		s.cmd.Wait()
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
	case <-s.exited:
		return nil, fmt.Errorf("servd exited before listening (see %s)", logf.Name())
	case <-time.After(30 * time.Second):
		s.kill()
		return nil, errors.New("servd did not start listening within 30s")
	}
	if err := s.waitHealthy(30 * time.Second); err != nil {
		s.kill()
		return nil, err
	}
	return s, nil
}

func (s *server) waitHealthy(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("servd not healthy within %v", limit)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop shuts servd down gracefully and waits for it to exit, killing it
// if it has not exited within 20s.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return err
	}
	select {
	case <-s.exited:
		return nil
	case <-time.After(20 * time.Second):
		s.kill()
		return errors.New("servd did not exit within 20s of SIGTERM")
	}
}

// kill ends servd at once and waits for it.
func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.exited
}

// cpuSeconds reads servd's user plus system CPU time.
func (s *server) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(data))
}

// parseStatCPU extracts utime+stime in seconds from a /proc/<pid>/stat
// line. The command name may hold spaces, so fields are counted from
// the last ')': utime and stime are fields 14 and 15 of the line.
func parseStatCPU(stat string) (float64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat line")
	}
	f := strings.Fields(stat[i+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return float64(ut+st) / clockTicks, nil
}

// peakRSSMiB reads servd's resident-set high-water mark (VmHWM).
func (s *server) peakRSSMiB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// journalBytes is the current size of servd's journal file.
func (s *server) journalBytes() int64 {
	fi, err := os.Stat(s.journal)
	if err != nil {
		return 0
	}
	return fi.Size()
}
