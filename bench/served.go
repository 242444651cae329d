package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/wire"
)

// buildServed compiles cmd/served from the checkout at root into dir.
func buildServed(root, dir string) (string, error) {
	bin := filepath.Join(dir, "served")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/served")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/served: %v\n%s", err, out)
	}
	return bin, nil
}

// servedArgs are the flags every served process gets: fsync before
// each SET ack, a fixed hash seed, and served's default geometry apart
// from the workload's initial bucket count.
func servedArgs(dir string, wl *workload) []string {
	return []string{
		"-dir", dir, "-addr", "127.0.0.1:0",
		"-wal-sync=true", "-seed", strconv.Itoa(mapSeed),
		"-buckets", strconv.Itoa(wl.buckets),
	}
}

// served is one running served process.
type served struct {
	cmd    *exec.Cmd
	addr   string
	logs   logTail
	exited chan struct{} // closed once its stderr reaches EOF
}

// startServed execs served on dir and waits for its first correct
// reply, returning the seconds from exec to that reply: snapshot load,
// WAL replay and listen, as a client sees them.
func startServed(bin, dir string, wl *workload, ks keyspace) (*served, float64, error) {
	s := &served{exited: make(chan struct{})}
	s.cmd = exec.Command(bin, servedArgs(dir, wl)...)
	// served must not outlive the benchmark, even if it is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := s.cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	addrc := make(chan string, 1)
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start served: %w", err)
	}
	go s.readLogs(stderr, addrc)
	select {
	case s.addr = <-addrc:
	case <-s.exited:
		s.kill()
		return nil, 0, fmt.Errorf("served exited before listening:\n%s", s.logs.String())
	case <-time.After(60 * time.Second):
		s.kill()
		return nil, 0, fmt.Errorf("served did not listen within 60s:\n%s", s.logs.String())
	}
	if err := firstReply(s.addr, wl, ks); err != nil {
		s.kill()
		return nil, 0, fmt.Errorf("first request: %w\n%s", err, s.logs.String())
	}
	return s, time.Since(start).Seconds(), nil
}

// readLogs keeps served's last log lines and reports the address from
// its "listening on" line.
func (s *served) readLogs(r io.Reader, addrc chan<- string) {
	defer close(s.exited)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		s.logs.add(line)
		if _, addr, ok := strings.Cut(line, "listening on "); ok {
			select {
			case addrc <- addr:
			default:
			}
		}
	}
}

// firstReply sends one GET of key 0 and checks the reply: the dataset's
// value, or for a workload that starts empty, not-found or a value the
// run wrote.
func firstReply(addr string, wl *workload, ks keyspace) error {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(30 * time.Second))
	var kb [keyLen]byte
	if _, err := nc.Write(wire.AppendGetRequest(nil, ks.key(&kb, 0))); err != nil {
		return err
	}
	payload, _, err := wire.ReadFrame(bufio.NewReader(nc), nil, wire.DefaultMaxFrame)
	if err != nil {
		return err
	}
	var rep wire.Reply
	if err := wire.ParseReply(payload, wire.OpGet, &rep); err != nil {
		return err
	}
	if wl.pairs == 0 && rep.Status == wire.StatusNotFound {
		return nil
	}
	if rep.Status != wire.StatusOK {
		return fmt.Errorf("GET of key 0: status %d", rep.Status)
	}
	if ver, ok := ks.check(rep.Body, 0); !ok || wl.pairs > 0 && ver != 0 {
		return errors.New("GET of key 0: wrong value")
	}
	return nil
}

// peakRSSMiB is served's peak resident set (VmHWM) in MiB.
func (s *served) peakRSSMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// kill SIGKILLs served, if it still runs, and waits for it to exit.
func (s *served) kill() {
	s.cmd.Process.Kill()
	<-s.exited
	s.cmd.Wait()
}

// logTail keeps the last lines a process logged, for error messages.
type logTail struct {
	mu    sync.Mutex
	lines []string
}

func (t *logTail) add(line string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.lines) == 20 {
		t.lines = t.lines[1:]
	}
	t.lines = append(t.lines, line)
}

func (t *logTail) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var b bytes.Buffer
	for _, l := range t.lines {
		b.WriteString("  served: " + l + "\n")
	}
	return b.String()
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}
