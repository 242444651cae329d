package main

// The echo reference. On a small shared VM, a loopback round trip costs
// what the host lets it cost: waking the threads at either end of the
// socket slows and speeds up with the host's load, over minutes. On the
// 2-vCPU VM the benchmark was written on, mget-cache's round-trip p50
// moved between ~30 and ~55 µs from one minute to the next, with served
// unchanged. A bare echo server, a process of its own like served, pays
// the same wake-ups and almost nothing else. So the round-trip phase
// alternates half-second slices of requests to served with slices of
// equal-sized frames echoed by the reference, over the same number of
// connections, and the bounded latency is served's p50 as a multiple of
// the echo's: the host's drift divides out, served's own costs do not.
// Over 100 one-second slice pairs on mget-cache, the quartile spread of
// medians over 10 pairs was 16% of the median for served's p50 in µs
// and 6% for the ratio.
//
// A SET is acknowledged only once fsynced, and the virtual disk's fsync
// drifts too, so for a workload that writes, the reference appends each
// frame to a file and fsyncs it before echoing it.
//
// The reference is this binary, re-executed with echoEnv set; see init.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"
)

// echoEnv, set to 1 in the environment, makes this binary the echo
// reference instead of the benchmark. echoSyncEnv, if set, names the
// directory where it fsyncs each frame before echoing it.
const (
	echoEnv     = "BENCH_ECHO_REFERENCE"
	echoSyncEnv = "BENCH_ECHO_SYNC_DIR"
)

// init turns the process into the echo reference when echoEnv asks for
// it. It is in init, not main, so the test binary can be the reference
// too.
func init() {
	if os.Getenv(echoEnv) != "1" {
		return
	}
	if err := echoServe(os.Getenv(echoSyncEnv)); err != nil {
		fmt.Fprintln(os.Stderr, "echo reference:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// echoServe listens on a loopback port, prints its address, and writes
// back every byte each connection sends, after appending it to a file
// in syncDir and fsyncing that file if syncDir is not empty. It returns
// when its standard input closes.
func echoServe(syncDir string) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	fmt.Println(ln.Addr())
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close()
				if err := echoConnLoop(nc, syncDir); err != nil {
					fmt.Fprintln(os.Stderr, "echo reference:", err)
				}
			}()
		}
	}()
	io.Copy(io.Discard, os.Stdin)
	return ln.Close()
}

func echoConnLoop(nc net.Conn, syncDir string) error {
	var f *os.File
	if syncDir != "" {
		var err error
		if f, err = os.CreateTemp(syncDir, "echo-*.log"); err != nil {
			return err
		}
		defer f.Close()
	}
	buf := make([]byte, 64<<10)
	for {
		n, err := nc.Read(buf)
		if err != nil {
			return nil // the benchmark closed the connection
		}
		if f != nil {
			if _, err := f.Write(buf[:n]); err != nil {
				return err
			}
			if err := f.Sync(); err != nil {
				return err
			}
		}
		if _, err := nc.Write(buf[:n]); err != nil {
			return nil
		}
	}
}

// echoRef is a running echo reference with one connection per client.
type echoRef struct {
	cmd   *exec.Cmd
	conns []*echoConn
}

type echoConn struct {
	nc       net.Conn
	req, rep []byte
}

// startEcho starts the reference and connects to it once per frame;
// each connection echoes its frame, fsynced in syncDir first if it is
// not empty.
func startEcho(frames [][]byte, syncDir string) (*echoRef, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	r := &echoRef{cmd: exec.Command(self)}
	r.cmd.Env = append(os.Environ(), echoEnv+"=1", echoSyncEnv+"="+syncDir)
	r.cmd.Stderr = os.Stderr
	r.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if _, err := r.cmd.StdinPipe(); err != nil { // closed by Wait
		return nil, err
	}
	out, err := r.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := r.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start echo reference: %w", err)
	}
	addr, err := bufio.NewReader(out).ReadString('\n')
	if err != nil {
		r.close()
		return nil, fmt.Errorf("echo reference address: %w", err)
	}
	for _, f := range frames {
		nc, err := net.Dial("tcp", strings.TrimSpace(addr))
		if err != nil {
			r.close()
			return nil, err
		}
		r.conns = append(r.conns, &echoConn{nc: nc, req: f, rep: make([]byte, len(f))})
	}
	return r, nil
}

// close kills the reference and waits for it to exit.
func (r *echoRef) close() {
	for _, c := range r.conns {
		c.nc.Close()
	}
	r.cmd.Process.Kill()
	r.cmd.Wait()
}

// roundTrips echoes each connection's frame, one in flight per
// connection, for d, and returns the round-trip latencies, sorted.
func (r *echoRef) roundTrips(d time.Duration) ([]int64, error) {
	end := now() + int64(d)
	lats := make([][]int64, len(r.conns))
	errs := make([]error, len(r.conns))
	var wg sync.WaitGroup
	for i, c := range r.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for now() < end {
				t := now()
				if _, err := c.nc.Write(c.req); err != nil {
					errs[i] = err
					return
				}
				if _, err := io.ReadFull(c.nc, c.rep); err != nil {
					errs[i] = err
					return
				}
				lats[i] = append(lats[i], now()-t)
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("echo reference: %w", err)
	}
	lat := slices.Concat(lats...)
	slices.Sort(lat)
	return lat, nil
}
