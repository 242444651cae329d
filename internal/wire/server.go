package wire

// The pipelined TCP server. Each connection runs one goroutine with a
// burst-shaped decode loop: block for the first request, then keep
// decoding as long as complete frames are already buffered (one socket
// read's worth of pipelining, bounded by MaxPipeline), batching every
// run of consecutive GETs — and each MGET — through one Backend.GetBatch
// call, then write the burst's replies in request order with one
// conn.Write. A burst holds one buffer per direction: the frames it
// read, appended to one input slice that every request (a pending GET's
// key included) is a view into, and the replies it owes, appended to
// one output slice. The input holds at most the burst's first frame
// plus the 64 KiB the connection's reader had buffered after it.
//
// Error discipline: a framing error (oversized frame, CRC mismatch,
// malformed payload) sends one ERR reply and closes the connection —
// past a framing fault the stream's record boundaries are untrustworthy.
// An application error (backend Set/Delete failure) sends an ERR reply
// for that request and keeps the connection: framing is intact and
// later pipelined requests are still answerable. EOF or a timeout
// before a burst's first frame is a close, not a fault: nothing is
// counted or answered.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Backend is the key-value store a Server fronts. Keys and values are
// views into network buffers, valid only for the call: an implementation
// that retains them (Set does) must copy. GetBatch fills vals[i]/found[i]
// per key and returns the hit count; returned values need only stay
// valid until the next Backend call on the same connection.
type Backend interface {
	GetBatch(keys [][]byte, vals [][]byte, found []bool) int
	Set(key, val []byte) error
	Delete(key []byte) (bool, error)
}

// Options tune a Server. The zero value is usable: DefaultMaxFrame
// frames, DefaultMaxPipeline requests per burst, no timeouts.
type Options struct {
	// MaxFrameBytes bounds one frame's payload (0 = DefaultMaxFrame). A
	// larger frame is answered with ERR and the connection closes.
	MaxFrameBytes int
	// MaxPipeline bounds how many requests one burst decodes before the
	// accumulated replies are flushed (0 = DefaultMaxPipeline). It caps
	// per-connection memory: reply bytes buffer until the burst ends.
	MaxPipeline int
	// IdleTimeout closes a connection that sends no request for this
	// long (0 = never). It doubles as the per-request read guard: a peer
	// that stalls mid-frame is cut when the deadline lapses.
	IdleTimeout time.Duration
	// WriteTimeout bounds each reply flush (0 = never): a peer that
	// stops draining its socket cannot pin a handler goroutine forever.
	WriteTimeout time.Duration
	// Logf, when set, receives connection-level error lines.
	Logf func(format string, args ...any)
}

// DefaultMaxPipeline is the per-burst request cap when Options leaves
// MaxPipeline zero.
const DefaultMaxPipeline = 1024

// connBufSize is the per-connection bufio read buffer size: large
// enough that one socket read carries a deep pipeline.
const connBufSize = 64 << 10

// Server speaks the wire protocol on accepted connections. Create with
// NewServer, then Serve one or more listeners; Shutdown drains.
type Server struct {
	backend  Backend
	opts     Options
	counters Counters
	reg      *obs.Registry

	// closed is set, under mu, when Shutdown begins; connections read
	// it once per burst without the lock.
	closed atomic.Bool

	//repro:lockclass wire-conns 60
	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	wg        sync.WaitGroup
}

// NewServer returns a Server fronting backend.
func NewServer(backend Backend, opts Options) *Server {
	if opts.MaxFrameBytes <= 0 {
		opts.MaxFrameBytes = DefaultMaxFrame
	}
	if opts.MaxPipeline <= 0 {
		opts.MaxPipeline = DefaultMaxPipeline
	}
	s := &Server{
		backend:   backend,
		opts:      opts,
		reg:       obs.NewRegistry(),
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
	}
	s.counters.register(s.reg)
	return s
}

// Counters exposes the server's instruments, each registered in
// Registry under its repro_server_* name.
func (s *Server) Counters() *Counters { return &s.counters }

// Registry returns the registry whose Prometheus text exposition is the
// body of every STATS reply. It holds the server's own series; series a
// caller adds (cmd/served adds the map's and the WAL's) ride STATS too,
// and an HTTP /metrics handler serving this registry exposes the same
// series in the same order.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Serve accepts connections on ln until Shutdown (returning nil) or an
// accept error (returning it). Safe to call on several listeners
// concurrently.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		ln.Close()
		return errors.New("wire: Serve on a shut-down Server")
	}
	s.listeners[ln] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, ln)
		s.mu.Unlock()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.closed.Load() {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.counters.ConnsAccepted.Add(1)
		s.counters.ConnsActive.Add(1)
		connStart := obs.NowNanos()
		go func() {
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				s.counters.ConnsActive.Add(-1)
				s.counters.ConnNanos.Record(obs.NowNanos() - connStart)
				s.wg.Done()
			}()
			s.serveConn(conn)
		}()
	}
}

// Shutdown stops accepting, lets in-flight connections finish their
// current burst (each closes after at most one more idle read), and
// force-closes whatever remains after timeout. It returns nil if every
// connection drained voluntarily.
func (s *Server) Shutdown(timeout time.Duration) error {
	drainStart := obs.NowNanos()
	s.mu.Lock()
	s.closed.Store(true)
	for ln := range s.listeners {
		ln.Close()
	}
	// Nudge connections blocked in their idle read: an immediate read
	// deadline makes the read return, and the handler sees closed=true
	// and drains out cleanly (flushing any burst it was mid-way through).
	for c := range s.conns {
		c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	var timer <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timer = t.C
	}
	select {
	case <-done:
		s.counters.DrainNanos.Record(obs.NowNanos() - drainStart)
		return nil
	case <-timer:
	}
	s.mu.Lock()
	n := len(s.conns)
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	<-done
	s.counters.DrainNanos.Record(obs.NowNanos() - drainStart)
	return fmt.Errorf("wire: Shutdown force-closed %d connection(s) after %v", n, timeout)
}

// connState is one connection's reusable scratch, pooled across
// connections so the steady-state burst loop allocates nothing.
type connState struct {
	// The burst's two buffers: in, every frame it read, and out, the
	// replies it owes in request order. Each request is a view into in
	// until out is written, so in is reset only when the next burst
	// starts. A burst reads on only while a whole frame is already
	// buffered, so in holds at most its first frame (MaxFrameBytes)
	// plus the connBufSize bytes the reader had buffered after it.
	in  []byte
	out []byte

	req  Request  // the request being served (Keys scratch rides along)
	gets [][]byte // the pending coalesced GET run's keys, views into in

	// GetBatch results, for a coalesced GET run or an MGET.
	vals  [][]byte
	found []bool
}

var connStatePool = sync.Pool{New: func() any { return new(connState) }}

// serveConn runs one connection to completion.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	cs := connStatePool.Get().(*connState)
	defer connStatePool.Put(cs)
	br := newConnReader(conn)
	defer putConnReader(br)

	for !s.closed.Load() { // Shutdown drains a connection between bursts
		if s.opts.IdleTimeout > 0 {
			// Also the drain backstop: if Shutdown's immediate-deadline
			// nudge races with this reset, the idle timeout still bounds
			// how long the blocked read outlives it (and Shutdown's own
			// timeout force-closes regardless).
			conn.SetReadDeadline(time.Now().Add(s.opts.IdleTimeout))
		}
		// One burst: a blocking read of one request, then every complete
		// frame already buffered, capped by MaxPipeline. GET runs
		// coalesce; each request handled owes one reply.
		cs.in, cs.out = cs.in[:0], cs.out[:0]
		replies := 0
		var err error
		for replies < s.opts.MaxPipeline && (replies == 0 || FrameBuffered(br)) {
			var payload []byte
			if payload, cs.in, err = appendFrame(br, cs.in, s.opts.MaxFrameBytes); err != nil {
				break
			}
			s.counters.FramesIn.Add(1)
			s.counters.BytesIn.Add(FrameHeaderSize + int64(len(payload)))
			if err = ParseRequest(payload, &cs.req); err != nil {
				break
			}
			s.handle(cs)
			replies++
		}
		if err != nil && !framingFault(err) {
			// Only a burst's first read waits on the socket, so no reply
			// is owed: the peer closed or reset the connection, went idle,
			// or Shutdown nudged it.
			if isTimeout(err) && !s.closed.Load() {
				s.logf("wire: %s: idle timeout", conn.RemoteAddr())
			}
			return
		}
		s.flushGets(cs)
		if err != nil {
			// A framing fault: past it the stream's record boundaries are
			// untrustworthy, so it is answered and the connection closes.
			if errors.Is(err, ErrTooBig) {
				s.counters.ErrTooBig.Add(1)
			} else {
				s.counters.ErrDecode.Add(1)
			}
			s.logf("wire: %s: %v", conn.RemoteAddr(), err)
			cs.out = AppendErrReply(cs.out, err.Error())
			replies++
		}
		if werr := s.writeOut(conn, cs.out, replies); werr != nil {
			s.logf("wire: %s: writing replies: %v", conn.RemoteAddr(), werr)
			return
		}
		if err != nil {
			return
		}
	}
}

// handle serves one parsed request, appending its reply to cs.out (or,
// for a GET, deferring it to the pending coalesced run).
func (s *Server) handle(cs *connState) {
	switch cs.req.Op {
	case OpGet:
		// Deferred: coalesced with neighboring GETs, flushed before the
		// next non-GET (read-your-writes per connection) or at burst end.
		cs.gets = append(cs.gets, cs.req.Key)
	case OpSet:
		s.flushGets(cs)
		s.counters.Sets.Add(1)
		start := obs.NowNanos()
		err := s.backend.Set(cs.req.Key, cs.req.Val)
		s.counters.SetNanos.Record(obs.NowNanos() - start)
		if err != nil {
			s.counters.ErrSet.Add(1)
			cs.out = AppendErrReply(cs.out, err.Error())
			return
		}
		cs.out = AppendStatusReply(cs.out, StatusOK)
	case OpDel:
		s.flushGets(cs)
		s.counters.Dels.Add(1)
		start := obs.NowNanos()
		present, err := s.backend.Delete(cs.req.Key)
		s.counters.DelNanos.Record(obs.NowNanos() - start)
		if err != nil {
			s.counters.ErrDel.Add(1)
			cs.out = AppendErrReply(cs.out, err.Error())
			return
		}
		st := StatusOK
		if !present {
			s.counters.DelMisses.Add(1)
			st = StatusNotFound
		}
		cs.out = AppendStatusReply(cs.out, st)
	case OpMGet:
		s.flushGets(cs)
		s.counters.MGets.Add(1)
		s.counters.MGetKeys.Add(int64(len(cs.req.Keys)))
		vals, found := s.getBatch(cs, cs.req.Keys, &s.counters.MGetNanos)
		cs.out = AppendMGetReply(cs.out, vals, found)
	case OpStats:
		s.flushGets(cs)
		s.counters.StatsOps.Add(1)
		// AppendTextReply, with the exposition appended in place.
		out, m := beginFrame(cs.out)
		out = s.reg.AppendProm(append(out, byte(StatusOK)))
		cs.out = endFrame(out, m)
	default:
		panic("wire: ParseRequest admitted " + cs.req.Op.String())
	}
}

// flushGets resolves the pending coalesced GET run through one
// Backend.GetBatch call and appends its replies in request order.
func (s *Server) flushGets(cs *connState) {
	if len(cs.gets) == 0 {
		return
	}
	vals, found := s.getBatch(cs, cs.gets, &s.counters.GetNanos)
	s.counters.Gets.Add(int64(len(cs.gets)))
	for i, ok := range found {
		if ok {
			cs.out = AppendValueReply(cs.out, vals[i])
		} else {
			cs.out = AppendStatusReply(cs.out, StatusNotFound)
		}
	}
	cs.gets = cs.gets[:0]
}

// getBatch looks keys up through one Backend.GetBatch call, timed into
// h, and returns the per-key results; they stay valid until the next
// Backend call.
//
//repro:noalloc
func (s *Server) getBatch(cs *connState, keys [][]byte, h *obs.Histogram) ([][]byte, []bool) {
	n := len(keys)
	if cap(cs.vals) < n {
		cs.vals = make([][]byte, n) //repro:allocok amortized batch scratch growth, bounded by MaxMGetKeys and MaxPipeline
		cs.found = make([]bool, n)  //repro:allocok amortized batch scratch growth
	}
	vals, found := cs.vals[:n], cs.found[:n]
	clear(found) // stale hits from the previous batch must not leak
	start := obs.NowNanos()
	hits := s.backend.GetBatch(keys, vals, found)
	h.Record(obs.NowNanos() - start)
	s.counters.noteBatch(n)
	s.counters.GetMisses.Add(int64(n - hits))
	return vals, found
}

// writeOut writes a burst's reply frames, out, in one conn.Write under
// the write deadline. The deadline stays armed after the write and
// may lapse while the connection idles: every write on a connection goes
// through here and arms a fresh one first.
func (s *Server) writeOut(conn net.Conn, out []byte, frames int) error {
	if s.opts.WriteTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(s.opts.WriteTimeout))
	}
	if _, err := conn.Write(out); err != nil {
		return err
	}
	s.counters.BytesOut.Add(int64(len(out)))
	s.counters.FramesOut.Add(int64(frames))
	return nil
}

// framingFault reports whether err, a burst's read or parse error, is a
// fault of the frames the peer sent: a frame over the size guard, a
// malformed one, or one the stream cut short. Any other read error ends
// the connection without one.
func framingFault(err error) bool {
	return errors.Is(err, ErrTooBig) || errors.Is(err, ErrMalformed) || errors.Is(err, io.ErrUnexpectedEOF)
}

// isTimeout reports whether err is a deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout() || errors.Is(err, os.ErrDeadlineExceeded)
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// Pooled per-connection bufio readers: their 64 KiB buffers dominate a
// connection's footprint, so churny accept loops reuse them.
var readerPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, connBufSize) }}

func newConnReader(c net.Conn) *bufio.Reader {
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(c)
	return br
}

func putConnReader(br *bufio.Reader) {
	br.Reset(nil)
	readerPool.Put(br)
}
