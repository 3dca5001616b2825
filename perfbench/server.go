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

// env owns everything a run leaves on disk or in the process table: the
// run's scratch directory under the checkout and the wccserve children.
// close releases all of it and is safe to call more than once.
type env struct {
	work     string // <checkout>/.bench_build
	runDir   string // per-run scratch directory, removed by close
	pidDir   string // one file per live child: "<pid>" holding its address
	serveBin string

	mu      sync.Mutex
	servers []*server
	dirs    int
	closed  bool
}

func newEnv(root, serveBin string) (*env, error) {
	work := filepath.Join(root, ".bench_build")
	e := &env{
		work:     work,
		runDir:   filepath.Join(work, "run-"+strconv.Itoa(os.Getpid())),
		pidDir:   filepath.Join(work, "servers"),
		serveBin: serveBin,
	}
	if _, err := os.Stat(serveBin); err != nil {
		return nil, fmt.Errorf("wccserve binary: %w", err)
	}
	if err := e.checkStray(); err != nil {
		return nil, err
	}
	for _, d := range []string{e.runDir, e.pidDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// checkStray fails fast when a wccserve started by an earlier run is still
// alive and answering on its recorded address; records of dead processes,
// and the scratch dirs of runs that were killed outright, are removed.
func (e *env) checkStray() error {
	runs, _ := filepath.Glob(filepath.Join(e.work, "run-*"))
	for _, dir := range runs {
		pid, err := strconv.Atoi(strings.TrimPrefix(filepath.Base(dir), "run-"))
		if err == nil && syscall.Kill(pid, 0) != nil {
			os.RemoveAll(dir)
		}
	}
	entries, err := os.ReadDir(e.pidDir)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	hc := &http.Client{Timeout: 500 * time.Millisecond}
	for _, ent := range entries {
		path := filepath.Join(e.pidDir, ent.Name())
		pid, err := strconv.Atoi(ent.Name())
		if err != nil {
			continue
		}
		addr, _ := os.ReadFile(path)
		if syscall.Kill(pid, 0) == nil {
			resp, err := hc.Get("http://" + strings.TrimSpace(string(addr)) + "/healthz")
			if err == nil {
				resp.Body.Close()
				return fmt.Errorf("stray wccserve pid %d from an earlier run is still serving on %s; stop it (kill %d) and rerun",
					pid, strings.TrimSpace(string(addr)), pid)
			}
		}
		os.Remove(path)
	}
	return nil
}

// tempDir returns a fresh directory under the run's scratch directory.
func (e *env) tempDir(name string) (string, error) {
	e.mu.Lock()
	e.dirs++
	dir := filepath.Join(e.runDir, fmt.Sprintf("%02d-%s", e.dirs, name))
	e.mu.Unlock()
	return dir, os.MkdirAll(dir, 0o755)
}

// close stops every child still running and removes the run's scratch
// directory.
func (e *env) close() {
	e.mu.Lock()
	servers := e.servers
	e.servers = nil
	e.closed = true
	e.mu.Unlock()
	for _, s := range servers {
		s.kill()
	}
	os.RemoveAll(e.runDir)
}

// server is one wccserve child process.
type server struct {
	name    string
	cmd     *exec.Cmd
	url     string
	pidFile string
	started time.Time // just before exec
	ready   time.Time // when its listening line arrived
	done    chan struct{}

	mu   sync.Mutex
	tail []string // last stderr lines, for error reports
}

// start launches wccserve on a kernel-chosen loopback port (no port is
// probed first, so two runs can never race for one) and returns once the
// server logs its listening address.
func (e *env) start(ctx context.Context, name string, args ...string) (*server, error) {
	cmd := exec.Command(e.serveBin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	// The child dies with the benchmark even when the benchmark is killed
	// outright and gets no chance to clean up.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	s := &server{name: name, cmd: cmd, done: make(chan struct{})}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, errors.New("benchmark is shutting down")
	}
	s.started = time.Now()
	if err := cmd.Start(); err != nil {
		e.mu.Unlock()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	e.servers = append(e.servers, s)
	e.mu.Unlock()

	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			s.mu.Lock()
			if len(s.tail) == 20 {
				s.tail = s.tail[1:]
			}
			s.tail = append(s.tail, line)
			s.mu.Unlock()
			if i := strings.Index(line, "listening on http://"); i >= 0 && !sent {
				addrc <- line[i+len("listening on http://"):]
				sent = true
			}
		}
		cmd.Wait()
		close(s.done)
	}()

	timer := time.NewTimer(120 * time.Second)
	defer timer.Stop()
	select {
	case addr := <-addrc:
		s.ready = time.Now()
		s.url = "http://" + addr
		s.pidFile = filepath.Join(e.pidDir, strconv.Itoa(cmd.Process.Pid))
		if err := os.WriteFile(s.pidFile, []byte(addr), 0o644); err != nil {
			return nil, err
		}
		return s, nil
	case <-s.done:
		return nil, fmt.Errorf("%s exited before listening: %s", name, s.logTail())
	case <-timer.C:
		return nil, fmt.Errorf("%s did not listen within 120s: %s", name, s.logTail())
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (s *server) logTail() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.tail, " | ")
}

// stop shuts the server down gracefully and reports whether it exited
// cleanly within the drain window; it is killed otherwise.
func (s *server) stop() error {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(20 * time.Second):
		s.kill()
		return fmt.Errorf("%s ignored SIGTERM for 20s", s.name)
	}
	os.Remove(s.pidFile)
	if st := s.cmd.ProcessState; st != nil && !st.Success() {
		return fmt.Errorf("%s exited with %v: %s", s.name, st, s.logTail())
	}
	return nil
}

// kill ends the process unconditionally and waits for it.
func (s *server) kill() {
	select {
	case <-s.done:
	default:
		s.cmd.Process.Kill()
		<-s.done
	}
	if s.pidFile != "" {
		os.Remove(s.pidFile)
	}
}
