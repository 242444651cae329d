package wire

// Loopback server tests: a real TCP listener on 127.0.0.1, the real
// client, an in-memory backend. Covers the pipelining contract (N
// queued requests → N in-order replies), per-connection read-your-
// writes across the GET-coalescing tier, the two error disciplines
// (framing faults close the connection, application faults don't),
// the frame guards, the idle and write timeouts, STATS, and graceful
// shutdown.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// memBackend is a mutex-guarded map: the minimal correct Backend.
type memBackend struct {
	mu     sync.Mutex
	m      map[string][]byte
	setErr error // injected Set failure
}

func newMemBackend() *memBackend { return &memBackend{m: make(map[string][]byte)} }

func (b *memBackend) GetBatch(keys [][]byte, vals [][]byte, found []bool) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	hits := 0
	for i, k := range keys {
		v, ok := b.m[string(k)]
		vals[i], found[i] = v, ok
		if ok {
			hits++
		}
	}
	return hits
}

func (b *memBackend) Set(key, val []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.setErr != nil {
		return b.setErr
	}
	b.m[string(key)] = append([]byte(nil), val...)
	return nil
}

func (b *memBackend) Delete(key []byte) (bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, ok := b.m[string(key)]
	delete(b.m, string(key))
	return ok, nil
}

// startServer boots a server on a loopback listener and returns it with
// its address; cleanup shuts it down.
func startServer(t *testing.T, backend Backend, opts Options) (*Server, string) {
	t.Helper()
	srv := NewServer(backend, opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Shutdown(2 * time.Second)
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

func dialT(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestServerBasicOps(t *testing.T) {
	_, addr := startServer(t, newMemBackend(), Options{})
	c := dialT(t, addr)

	if _, ok, err := c.Get([]byte("missing")); err != nil || ok {
		t.Fatalf("Get(missing) = ok %v err %v", ok, err)
	}
	if err := c.Set([]byte("k"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := c.Get([]byte("k")); err != nil || !ok || string(v) != "v1" {
		t.Fatalf("Get(k) = %q ok %v err %v", v, ok, err)
	}
	if err := c.Set([]byte("k"), []byte("v2")); err != nil { // overwrite
		t.Fatal(err)
	}
	if v, _, _ := c.Get([]byte("k")); string(v) != "v2" {
		t.Fatalf("after overwrite Get(k) = %q", v)
	}
	if present, err := c.Delete([]byte("k")); err != nil || !present {
		t.Fatalf("Delete(k) = %v err %v", present, err)
	}
	if present, err := c.Delete([]byte("k")); err != nil || present {
		t.Fatalf("second Delete(k) = %v err %v", present, err)
	}
	if _, ok, _ := c.Get([]byte("k")); ok {
		t.Fatal("key survived Delete")
	}
}

func TestServerPipelining(t *testing.T) {
	const n = 500 // half a burst beyond typical single-read batches
	srv, addr := startServer(t, newMemBackend(), Options{})
	c := dialT(t, addr)

	for i := 0; i < n; i++ {
		if err := c.QueueSet(fmt.Appendf(nil, "key-%03d", i), fmt.Appendf(nil, "val-%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := c.RecvSet(); err != nil {
			t.Fatalf("SET %d: %v", i, err)
		}
	}

	// N pipelined GETs: the replies must come back in request order —
	// each carrying its own key's value, not a neighbor's.
	for i := 0; i < n; i++ {
		if err := c.QueueGet(fmt.Appendf(nil, "key-%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Pending() != n {
		t.Fatalf("Pending = %d, want %d", c.Pending(), n)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		v, ok, err := c.RecvGet()
		if err != nil || !ok {
			t.Fatalf("GET %d: ok %v err %v", i, ok, err)
		}
		if want := fmt.Sprintf("val-%03d", i); string(v) != want {
			t.Fatalf("GET %d out of order: got %q, want %q", i, v, want)
		}
	}

	// The server must have coalesced at least one multi-GET batch out of
	// those pipelined reads (the histogram's >1 buckets are its proof).
	cs := srv.Counters()
	var bs obs.HistSnapshot
	cs.BatchSizes.Snapshot(&bs)
	if multi := bs.Count - bs.CountLE(1); multi == 0 {
		t.Error("500 pipelined GETs never coalesced into a multi-key batch")
	}
	if got := cs.Gets.Load(); got != n {
		t.Errorf("Gets counter = %d, want %d", got, n)
	}
	// One reply per request: the server counts its replies once their
	// write returns, which may be after the client has read them.
	waitCounter(t, &cs.FramesOut, 2*n, "frames_out")
	if got := cs.FramesIn.Load(); got != 2*n {
		t.Errorf("frames_in = %d, want %d", got, 2*n)
	}
}

func TestServerReadYourWrites(t *testing.T) {
	// A pipelined SET k → GET k → DEL k → GET k burst: the GET coalescer
	// must flush around the writes so each reply reflects every earlier
	// request on the same connection.
	_, addr := startServer(t, newMemBackend(), Options{})
	c := dialT(t, addr)

	k, v := []byte("ryw"), []byte("val")
	c.QueueGet(k)
	c.QueueSet(k, v)
	c.QueueGet(k)
	c.QueueDelete(k)
	c.QueueGet(k)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.RecvGet(); err != nil || ok {
		t.Fatalf("pre-SET GET: ok %v err %v", ok, err)
	}
	if err := c.RecvSet(); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := c.RecvGet(); err != nil || !ok || !bytes.Equal(got, v) {
		t.Fatalf("post-SET GET = %q ok %v err %v", got, ok, err)
	}
	if present, err := c.RecvDelete(); err != nil || !present {
		t.Fatalf("DEL: present %v err %v", present, err)
	}
	if _, ok, err := c.RecvGet(); err != nil || ok {
		t.Fatalf("post-DEL GET: ok %v err %v", ok, err)
	}
}

func TestServerMGet(t *testing.T) {
	_, addr := startServer(t, newMemBackend(), Options{})
	c := dialT(t, addr)

	for i := 0; i < 8; i += 2 { // even keys present, odd absent
		if err := c.Set(fmt.Appendf(nil, "k%d", i), fmt.Appendf(nil, "v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	keys := make([][]byte, 8)
	for i := range keys {
		keys[i] = fmt.Appendf(nil, "k%d", i)
	}
	vals := make([][]byte, 8)
	found := make([]bool, 8)
	hits, err := c.MGet(keys, vals, found)
	if err != nil {
		t.Fatal(err)
	}
	if hits != 4 {
		t.Fatalf("hits = %d, want 4", hits)
	}
	for i := range keys {
		wantOK := i%2 == 0
		if found[i] != wantOK {
			t.Fatalf("key %d: found %v, want %v", i, found[i], wantOK)
		}
		if wantOK && string(vals[i]) != fmt.Sprintf("v%d", i) {
			t.Fatalf("key %d: val %q", i, vals[i])
		}
	}
}

func TestServerStats(t *testing.T) {
	_, addr := startServer(t, newMemBackend(), Options{})
	c := dialT(t, addr)
	c.Set([]byte("k"), []byte("v"))
	c.Get([]byte("k"))
	text, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// Whole "name value" lines: a bare substring match would let
	// "gets_total 1" pass on "gets_total 12".
	for _, want := range []string{
		"repro_server_gets_total 1",
		"repro_server_sets_total 1",
		"repro_server_stats_total 1",
		"repro_server_conns_active 1",
		"repro_server_batch_size_count 1",
	} {
		if !strings.Contains(text, "\n"+want+"\n") {
			t.Errorf("STATS text lacks the line %q:\n%s", want, text)
		}
	}
}

func TestServerApplicationErrorKeepsConnection(t *testing.T) {
	b := newMemBackend()
	_, addr := startServer(t, b, Options{})
	c := dialT(t, addr)

	b.mu.Lock()
	b.setErr = errors.New("backend sick")
	b.mu.Unlock()
	err := c.Set([]byte("k"), []byte("v"))
	var re RemoteError
	if !errors.As(err, &re) || !strings.Contains(string(re), "backend sick") {
		t.Fatalf("Set during backend failure: %v, want RemoteError(backend sick)", err)
	}
	b.mu.Lock()
	b.setErr = nil
	b.mu.Unlock()

	// Application error ≠ framing error: the same connection keeps
	// working. (The client's sticky error only trips on framing faults.)
	if err := c.Set([]byte("k"), []byte("v")); err != nil {
		t.Fatalf("Set after backend recovered: %v", err)
	}
	if v, ok, err := c.Get([]byte("k")); err != nil || !ok || string(v) != "v" {
		t.Fatalf("Get after recovery = %q ok %v err %v", v, ok, err)
	}
}

func TestServerFramingErrorClosesConnection(t *testing.T) {
	cases := []struct {
		name     string
		frame    func() []byte
		framesIn int64 // a frame whose CRC fails is not decoded
	}{
		{"bad-crc", func() []byte { return corrupt(AppendGetRequest(nil, []byte("k")), 1) }, 0},
		{"unknown-op", func() []byte { return reframe([]byte{99}) }, 1},
		{"garbage-payload", func() []byte { return reframe([]byte{byte(OpSet), 0xFF, 0xFF}) }, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, addr := startServer(t, newMemBackend(), Options{})
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(tc.frame()); err != nil {
				t.Fatal(err)
			}
			// The server answers with one ERR frame, then closes: read to
			// EOF and check both happened.
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			raw, err := io.ReadAll(conn)
			if err != nil {
				t.Fatalf("reading the ERR reply: %v", err)
			}
			rep := parseOneReply(t, raw, OpGet)
			if rep.Status != StatusErr {
				t.Fatalf("status = %v, want ERR", rep.Status)
			}
			// And the fault is attributed: decode errors land in err_decode.
			if srv.Counters().ErrDecode.Load() == 0 {
				t.Error("err_decode counter not bumped")
			}
			// The ERR is the one reply written.
			waitCounter(t, &srv.Counters().FramesOut, 1, "frames_out")
			if got := srv.Counters().FramesIn.Load(); got != tc.framesIn {
				t.Errorf("frames_in = %d, want %d", got, tc.framesIn)
			}
		})
	}
}

func TestServerOversizedFrameRejected(t *testing.T) {
	srv, addr := startServer(t, newMemBackend(), Options{MaxFrameBytes: 1 << 10})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A length prefix far past the limit, no payload behind it: the
	// guard must trip on the header alone.
	hdr := make([]byte, FrameHeaderSize)
	hdr[0], hdr[1], hdr[2], hdr[3] = 0xFF, 0xFF, 0xFF, 0x3F // ~1 GiB
	if _, err := conn.Write(hdr); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	raw, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	rep := parseOneReply(t, raw, OpGet)
	if rep.Status != StatusErr || !strings.Contains(string(rep.Body), "max frame") {
		t.Fatalf("reply = %v %q, want ERR mentioning the frame limit", rep.Status, rep.Body)
	}
	if srv.Counters().ErrTooBig.Load() != 1 {
		t.Errorf("err_too_big = %d, want 1", srv.Counters().ErrTooBig.Load())
	}

	// The size guard is also checked mid-burst: a valid frame with an
	// oversized one right behind it in the same write.
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	burst := AppendGetRequest(nil, []byte("k"))
	burst = append(burst, hdr...)
	if _, err := conn2.Write(burst); err != nil {
		t.Fatal(err)
	}
	conn2.SetReadDeadline(time.Now().Add(5 * time.Second))
	raw, err = io.ReadAll(conn2)
	if err != nil {
		t.Fatal(err)
	}
	// Two replies: the GET's NOT_FOUND, then the ERR, then close.
	var reps []Reply
	for off := 0; off < len(raw); {
		length := int(uint32(raw[off]) | uint32(raw[off+1])<<8 | uint32(raw[off+2])<<16 | uint32(raw[off+3])<<24)
		payload := raw[off+FrameHeaderSize : off+FrameHeaderSize+length]
		var rep Reply
		if err := ParseReply(payload, OpGet, &rep); err != nil {
			t.Fatal(err)
		}
		reps = append(reps, Reply{Status: rep.Status, Body: append([]byte(nil), rep.Body...)})
		off += FrameHeaderSize + length
	}
	if len(reps) != 2 || reps[0].Status != StatusNotFound || reps[1].Status != StatusErr {
		t.Fatalf("mid-burst oversize: got %d replies %+v, want NOT_FOUND then ERR", len(reps), reps)
	}
}

// parseOneReply decodes the first frame in raw as a reply to op.
func parseOneReply(t *testing.T, raw []byte, op Op) Reply {
	t.Helper()
	if len(raw) < FrameHeaderSize {
		t.Fatalf("short reply stream: %d bytes", len(raw))
	}
	length := int(uint32(raw[0]) | uint32(raw[1])<<8 | uint32(raw[2])<<16 | uint32(raw[3])<<24)
	if len(raw) < FrameHeaderSize+length {
		t.Fatalf("reply frame torn: %d of %d payload bytes", len(raw)-FrameHeaderSize, length)
	}
	var rep Reply
	if err := ParseReply(raw[FrameHeaderSize:FrameHeaderSize+length], op, &rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestServerShutdownDrains(t *testing.T) {
	srv, addr := startServer(t, newMemBackend(), Options{IdleTimeout: time.Minute})
	c := dialT(t, addr)
	if err := c.Set([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("Shutdown with only an idle connection: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("drain of an idle connection took %v", elapsed)
	}
	// Connection is gone; the next round trip fails rather than hanging.
	c.conn.SetDeadline(time.Now().Add(2 * time.Second))
	if _, _, err := c.Get([]byte("k")); err == nil {
		t.Error("Get succeeded after Shutdown")
	}
	// New connections are refused (listener closed).
	if _, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		t.Error("Dial succeeded after Shutdown")
	}
}

func TestServerEmptyKeyAndValue(t *testing.T) {
	// Zero-length keys and values are legal on the wire; the server must
	// round-trip them, not conflate empty with absent.
	_, addr := startServer(t, newMemBackend(), Options{})
	c := dialT(t, addr)
	if err := c.Set([]byte{}, []byte{}); err != nil {
		t.Fatal(err)
	}
	v, ok, err := c.Get([]byte{})
	if err != nil || !ok || len(v) != 0 {
		t.Fatalf("Get(empty) = %q ok %v err %v", v, ok, err)
	}
}

// waitCounter waits up to five seconds for c to read want.
func waitCounter(t *testing.T, c *obs.Counter, want int64, name string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); c.Load() != want; {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want %d", name, c.Load(), want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerWriteTimeoutCutsStalledReader: a peer that keeps sending
// requests but never reads the replies fills the socket buffers, so the
// server's flush blocks. WriteTimeout must cut it: the handler exits,
// and ConnsActive returns to 0, while the peer still holds its end open.
func TestServerWriteTimeoutCutsStalledReader(t *testing.T) {
	backend := newMemBackend()
	backend.m["big"] = make([]byte, 256<<10)
	var (
		mu   sync.Mutex
		logs []string
	)
	srv, addr := startServer(t, backend, Options{
		MaxPipeline:  4, // a burst buffers at most 1 MiB of replies
		WriteTimeout: 100 * time.Millisecond,
		Logf: func(format string, args ...any) {
			mu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.(*net.TCPConn).SetReadBuffer(4 << 10); err != nil {
		t.Fatal(err)
	}
	// Send GETs until a write fails: the server stops reading once its
	// flush blocks, and closes the connection when the flush times out.
	req := AppendGetRequest(nil, []byte("big"))
	writer := make(chan struct{})
	go func() {
		defer close(writer)
		conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
		for {
			if _, err := conn.Write(req); err != nil {
				return
			}
		}
	}()
	waitCounter(t, &srv.Counters().ConnsAccepted, 1, "conns_accepted")
	waitCounter(t, &srv.Counters().ConnsActive, 0, "conns_active")
	conn.Close()
	<-writer
	mu.Lock()
	defer mu.Unlock()
	for _, l := range logs {
		if strings.Contains(l, "writing replies") && strings.Contains(l, "timeout") {
			return
		}
	}
	t.Errorf("handler exited without a write timeout; logs: %q", logs)
}

// TestServerReplyAfterIdleLongerThanWriteTimeout: every flush arms its
// own write deadline, so a connection idle for longer than WriteTimeout
// still gets its next reply.
func TestServerReplyAfterIdleLongerThanWriteTimeout(t *testing.T) {
	_, addr := startServer(t, newMemBackend(), Options{WriteTimeout: 50 * time.Millisecond})
	c := dialT(t, addr)
	if err := c.Set([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	c.conn.SetDeadline(time.Now().Add(5 * time.Second))
	if v, ok, err := c.Get([]byte("k")); err != nil || !ok || string(v) != "v" {
		t.Fatalf("Get after an idle gap = %q ok %v err %v, want v", v, ok, err)
	}
}

// TestServerIdleTimeoutClosesSilentConnection: a connection that sends
// nothing is closed, with no reply and no fault counted, once
// IdleTimeout lapses.
func TestServerIdleTimeoutClosesSilentConnection(t *testing.T) {
	srv, addr := startServer(t, newMemBackend(), Options{IdleTimeout: 100 * time.Millisecond})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	raw, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("waiting for the server to close the connection: %v", err)
	}
	if len(raw) != 0 {
		t.Errorf("server sent %d bytes to a silent peer", len(raw))
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Errorf("closed after %v, before the idle timeout", elapsed)
	}
	waitCounter(t, &srv.Counters().ConnsActive, 0, "conns_active")
	if n := srv.Counters().ErrDecode.Load(); n != 0 {
		t.Errorf("err_decode = %d after an idle close, want 0", n)
	}
	if n := srv.Counters().ErrTooBig.Load(); n != 0 {
		t.Errorf("err_too_big = %d after an idle close, want 0", n)
	}
}

// TestServerPeerResetIsNotADecodeError: a peer that resets its
// connection, before sending a byte or halfway through a frame, has
// closed it; it has sent no malformed frame, so no decode error is
// counted.
func TestServerPeerResetIsNotADecodeError(t *testing.T) {
	srv, addr := startServer(t, newMemBackend(), Options{})
	frame := AppendGetRequest(nil, []byte("some-key"))
	for _, sent := range []int{0, len(frame) / 2} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		waitCounter(t, &srv.Counters().ConnsActive, 1, "conns_active")
		if _, err := conn.Write(frame[:sent]); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond) // let the server read what was sent
		if err := conn.(*net.TCPConn).SetLinger(0); err != nil {
			t.Fatal(err)
		}
		conn.Close() // with no linger, a reset
		waitCounter(t, &srv.Counters().ConnsActive, 0, "conns_active")
		if n := srv.Counters().ErrDecode.Load(); n != 0 {
			t.Fatalf("err_decode = %d after a reset with %d bytes sent, want 0", n, sent)
		}
	}
}

// TestRoundTripAllocFree: once warm, a GET and a 3-key MGET round trip
// allocate nothing. AllocsPerRun counts the whole process, so this
// covers the client, the server's burst loop and the backend together.
func TestRoundTripAllocFree(t *testing.T) {
	b := newMemBackend()
	b.m["k0"], b.m["k1"] = []byte("v0"), []byte("v1")
	_, addr := startServer(t, b, Options{})
	c := dialT(t, addr)
	keys := [][]byte{[]byte("k0"), []byte("k1"), []byte("missing")}
	vals, found := make([][]byte, len(keys)), make([]bool, len(keys))
	roundTrip := func() {
		if v, ok, err := c.Get(keys[0]); err != nil || !ok || string(v) != "v0" {
			t.Fatalf("Get = %q ok %v err %v", v, ok, err)
		}
		if hits, err := c.MGet(keys, vals, found); err != nil || hits != 2 {
			t.Fatalf("MGet = %d hits, err %v", hits, err)
		}
	}
	roundTrip() // grows every buffer on both ends to its steady size
	if allocs := testing.AllocsPerRun(200, roundTrip); allocs != 0 {
		t.Fatalf("GET + MGET round trip: %v allocs/run, want 0", allocs)
	}
}
