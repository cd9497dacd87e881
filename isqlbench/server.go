package main

import (
	"bufio"
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

// server is one running isqld process.
type server struct {
	cmd  *exec.Cmd
	base string // http://host:port
	log  *os.File
	done chan struct{} // closed once the process has been waited for
}

// live tracks every started isqld so an error path or a signal can
// stop them all and wait for them.
var live struct {
	sync.Mutex
	set map[*server]bool
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer launches isqld with args plus -addr, appending its
// stderr (log lines and slow-query span trees) to logPath. Standard
// output is discarded.
func startServer(bin, dir, addr, logPath string, args []string) (*server, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Dir = dir
	// Log lines and span trees reach the file through a pipe that this
	// process drains, so the server's own storage writes (/proc io)
	// count only its WAL and checkpoints.
	pipe, err := cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting isqld: %w", err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, log: logf, done: make(chan struct{})}
	live.Lock()
	if live.set == nil {
		live.set = map[*server]bool{}
	}
	live.set[s] = true
	live.Unlock()
	go func() {
		io.Copy(logf, pipe)
		cmd.Wait()
		logf.Close()
		close(s.done)
	}()
	return s, nil
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// waitHealthy polls /healthz until it answers 200.
func (s *server) waitHealthy(timeout time.Duration) error {
	c := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for {
		resp, err := c.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-s.done:
			return fmt.Errorf("isqld exited before answering /healthz (see %s)", s.log.Name())
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("isqld did not answer /healthz within %v", timeout)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// stop shuts isqld down gracefully (SIGTERM: final checkpoint) and
// waits for it; after 30 s it is killed.
func (s *server) stop() error {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(30 * time.Second):
		s.kill()
		return errors.New("isqld did not stop within 30s of SIGTERM")
	}
	s.forget()
	if st := s.cmd.ProcessState; st == nil || !st.Success() {
		return fmt.Errorf("isqld exited uncleanly: %v (see %s)", s.cmd.ProcessState, s.log.Name())
	}
	return nil
}

// kill sends SIGKILL and waits until the process is gone.
func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.done
	s.forget()
}

func (s *server) forget() {
	live.Lock()
	delete(live.set, s)
	live.Unlock()
}

// killAll stops every isqld still running and waits for each.
func killAll() {
	live.Lock()
	all := make([]*server, 0, len(live.set))
	for s := range live.set {
		all = append(all, s)
	}
	live.Unlock()
	for _, s := range all {
		s.kill()
	}
}

// procSample is what /proc tells about the server process.
type procSample struct {
	cpu        time.Duration // user + system
	writeBytes int64         // bytes the process caused to be written to storage
	rssKB      int64         // resident set (VmRSS)
}

// clockTick is USER_HZ, 100 on every Linux ABI Go supports.
const clockTick = 10 * time.Millisecond

func readProc(pid int) (procSample, error) {
	var p procSample
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return p, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(stat[strings.LastIndexByte(string(stat), ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return p, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	p.cpu = time.Duration(ut+st) * clockTick
	if v, ok, err := procField(fmt.Sprintf("/proc/%d/io", pid), "write_bytes:"); err != nil {
		return p, err
	} else if ok {
		p.writeBytes = v
	}
	if v, ok, err := procField(fmt.Sprintf("/proc/%d/status", pid), "VmRSS:"); err != nil {
		return p, err
	} else if ok {
		p.rssKB = v
	}
	return p, nil
}

// procField returns the first integer after key in a /proc file.
func procField(path, key string) (int64, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key); ok {
			fs := strings.Fields(rest)
			if len(fs) == 0 {
				return 0, false, nil
			}
			v, err := strconv.ParseInt(fs[0], 10, 64)
			return v, err == nil, nil
		}
	}
	return 0, false, sc.Err()
}

// promSnapshot is one /metrics scrape: every sample keyed by its
// series, `name` or `name{labels}` exactly as exposed.
type promSnapshot map[string]float64

func parseProm(text string) (promSnapshot, error) {
	out := promSnapshot{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("malformed metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("malformed metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

// sum adds every series of the metric name, across all label sets
// (per-shard series sum to the catalog total).
func (p promSnapshot) sum(name string) float64 {
	t := 0.0
	for k, v := range p {
		if k == name || (strings.HasPrefix(k, name+"{")) {
			t += v
		}
	}
	return t
}

// delta is after − before per series; series absent before count from 0.
func (p promSnapshot) delta(before promSnapshot) promSnapshot {
	out := promSnapshot{}
	for k, v := range p {
		out[k] = v - before[k]
	}
	return out
}

func (s *server) scrape() (promSnapshot, error) {
	resp, err := http.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", resp.StatusCode)
	}
	return parseProm(string(body))
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string, match func(name string) bool) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() && (match == nil || match(d.Name())) {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}
