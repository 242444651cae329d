package wire

// The pipelined TCP server. Each connection runs one goroutine with a
// burst-shaped decode loop: block for the first request, then keep
// decoding as long as complete frames are already buffered (one socket
// read's worth of pipelining, bounded by MaxPipeline), batching every
// run of consecutive GETs — and each MGET — through one Backend.GetBatch
// call before the burst's replies are flushed in request order.
//
// Error discipline: a framing error (oversized frame, CRC mismatch,
// malformed payload) sends one ERR reply and closes the connection —
// past a framing fault the stream's record boundaries are untrustworthy.
// An application error (backend Set/Delete failure) sends an ERR reply
// for that request and keeps the connection: framing is intact and
// later pipelined requests are still answerable.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
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

// connBufSize is the per-connection bufio read/write buffer size: large
// enough that one socket read carries a deep pipeline.
const connBufSize = 64 << 10

// Server speaks the wire protocol on accepted connections. Create with
// NewServer, then Serve one or more listeners; Shutdown drains.
type Server struct {
	backend  Backend
	opts     Options
	counters Counters
	reg      *obs.Registry

	//repro:lockclass wire-conns 60
	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	closed    bool
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
	if s.closed {
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
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
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
	s.closed = true
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

// closing reports whether Shutdown has begun.
func (s *Server) closing() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// connState is one connection's reusable scratch, pooled across
// connections so the steady-state decode loop allocates nothing.
type connState struct {
	buf []byte  // frame read buffer (ReadFrame reuses it)
	out []byte  // reply frames accumulate here until the burst flushes
	req Request // decoded request (Keys scratch rides along)

	// The coalesced-GET batch. Key bytes are copied into arena (the
	// frame buffer is reused across a burst's requests, so views would
	// tear); offs marks each key's end, keys/vals/found are the
	// materialized GetBatch arguments.
	arena []byte
	offs  []int
	keys  [][]byte
	vals  [][]byte
	found []bool

	stats []byte // STATS exposition scratch
}

var connStatePool = sync.Pool{New: func() any { return new(connState) }}

// pushGet copies key into the pending coalesced batch.
//
//repro:noalloc
func (cs *connState) pushGet(key []byte) {
	cs.arena = append(cs.arena, key...)      //repro:allocok amortized burst arena growth, bounded by MaxPipeline × MaxFrameBytes
	cs.offs = append(cs.offs, len(cs.arena)) //repro:allocok amortized burst scratch growth, bounded by MaxPipeline
}

// pendingGets returns how many GETs are queued for the next flush.
//
//repro:noalloc
func (cs *connState) pendingGets() int { return len(cs.offs) }

// batchArgs materializes the pending batch into keys/vals/found slices
// sized n (n = len(offs) for the coalesced run, or the MGET key count).
//
//repro:noalloc
func (cs *connState) batchArgs(n int) ([][]byte, [][]byte, []bool) {
	if cap(cs.keys) < n {
		cs.keys = make([][]byte, n) //repro:allocok amortized batch scratch growth
		cs.vals = make([][]byte, n) //repro:allocok amortized batch scratch growth
		cs.found = make([]bool, n)  //repro:allocok amortized batch scratch growth
	}
	found := cs.found[:n]
	for i := range found {
		found[i] = false // stale hits from the previous batch must not leak
	}
	return cs.keys[:n], cs.vals[:n], found
}

// serveConn runs one connection to completion.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	cs := connStatePool.Get().(*connState)
	defer connStatePool.Put(cs)
	br := newConnReader(conn)
	bw := newConnWriter(conn)
	defer func() {
		putConnReader(br)
		putConnWriter(bw)
	}()

	for {
		if s.closing() {
			return // drained: the previous burst's replies are flushed
		}
		if s.opts.IdleTimeout > 0 {
			// Also the drain backstop: if Shutdown's immediate-deadline
			// nudge races with this reset, the idle timeout still bounds
			// how long the blocked read outlives it (and Shutdown's own
			// timeout force-closes regardless).
			conn.SetReadDeadline(time.Now().Add(s.opts.IdleTimeout))
		}
		payload, buf, err := ReadFrame(br, cs.buf, s.opts.MaxFrameBytes)
		cs.buf = buf
		if err != nil {
			if err == io.EOF || s.closing() && isTimeout(err) {
				return // clean close, or drained out during Shutdown
			}
			s.replyFatal(conn, bw, err)
			return
		}
		s.counters.FramesIn.Add(1)
		s.counters.BytesIn.Add(FrameHeaderSize + int64(len(payload)))

		// One burst: this request plus every complete frame already
		// buffered, capped by MaxPipeline. GET runs coalesce; replies
		// accumulate in cs.out in request order.
		cs.out = cs.out[:0]
		cs.arena, cs.offs = cs.arena[:0], cs.offs[:0]
		fatal := false
		for n := 1; ; n++ {
			if err := ParseRequest(payload, &cs.req); err != nil {
				s.flushGets(cs)
				s.counters.ErrDecode.Add(1)
				cs.out = AppendErrReply(cs.out, err.Error())
				fatal = true
				break
			}
			if done := s.handle(cs); done {
				fatal = true
				break
			}
			if n >= s.opts.MaxPipeline || !FrameBuffered(br) {
				break
			}
			payload, buf, err = ReadFrame(br, cs.buf, s.opts.MaxFrameBytes)
			cs.buf = buf
			if err != nil {
				// The frame was fully buffered, so only framing faults
				// land here — fatal after the burst's replies go out.
				s.flushGets(cs)
				s.countFrameError(err)
				cs.out = AppendErrReply(cs.out, err.Error())
				fatal = true
				break
			}
			s.counters.FramesIn.Add(1)
			s.counters.BytesIn.Add(FrameHeaderSize + int64(len(payload)))
		}
		s.flushGets(cs)
		if err := s.writeOut(conn, bw, cs.out); err != nil {
			s.logf("wire: %s: writing replies: %v", conn.RemoteAddr(), err)
			return
		}
		if fatal {
			return
		}
	}
}

// handle serves one parsed request, appending its reply (or, for GETs,
// deferring it to the pending coalesced batch). It reports whether the
// connection must close (a guard tripped).
func (s *Server) handle(cs *connState) (fatal bool) {
	switch cs.req.Op {
	case OpGet:
		// Deferred: coalesced with neighboring GETs, flushed before the
		// next non-GET (read-your-writes per connection) or at burst end.
		cs.pushGet(cs.req.Key)
		return false
	case OpSet:
		s.flushGets(cs)
		s.counters.Sets.Add(1)
		start := obs.NowNanos()
		err := s.backend.Set(cs.req.Key, cs.req.Val)
		s.counters.SetNanos.Record(obs.NowNanos() - start)
		if err != nil {
			s.counters.ErrSet.Add(1)
			cs.out = AppendErrReply(cs.out, err.Error())
			return false
		}
		cs.out = AppendStatusReply(cs.out, StatusOK)
		return false
	case OpDel:
		s.flushGets(cs)
		s.counters.Dels.Add(1)
		start := obs.NowNanos()
		present, err := s.backend.Delete(cs.req.Key)
		s.counters.DelNanos.Record(obs.NowNanos() - start)
		if err != nil {
			s.counters.ErrDel.Add(1)
			cs.out = AppendErrReply(cs.out, err.Error())
			return false
		}
		st := StatusOK
		if !present {
			s.counters.DelMisses.Add(1)
			st = StatusNotFound
		}
		cs.out = AppendStatusReply(cs.out, st)
		return false
	case OpMGet:
		s.flushGets(cs)
		s.counters.MGets.Add(1)
		s.counters.MGetKeys.Add(int64(len(cs.req.Keys)))
		n := len(cs.req.Keys)
		keys, vals, found := cs.batchArgs(n)
		copy(keys, cs.req.Keys) // views into the current payload: valid through the GetBatch call
		start := obs.NowNanos()
		hits := s.backend.GetBatch(keys, vals, found)
		s.counters.MGetNanos.Record(obs.NowNanos() - start)
		s.counters.noteBatch(n)
		s.counters.GetMisses.Add(int64(n - hits))
		cs.out = AppendMGetReply(cs.out, vals, found)
		return false
	case OpStats:
		s.flushGets(cs)
		s.counters.StatsOps.Add(1)
		cs.stats = s.reg.AppendProm(cs.stats[:0])
		cs.out = AppendTextReply(cs.out, cs.stats)
		return false
	default:
		// ParseRequest rejects unknown ops; unreachable.
		s.counters.ErrDecode.Add(1)
		cs.out = AppendErrReply(cs.out, errOp.Error())
		return true
	}
}

// flushGets resolves the pending coalesced GET run through one
// Backend.GetBatch call and appends its replies in request order.
func (s *Server) flushGets(cs *connState) {
	n := cs.pendingGets()
	if n == 0 {
		return
	}
	keys, vals, found := cs.batchArgs(n)
	prev := 0
	for i, end := range cs.offs {
		keys[i] = cs.arena[prev:end]
		prev = end
	}
	start := obs.NowNanos()
	hits := s.backend.GetBatch(keys, vals, found)
	s.counters.GetNanos.Record(obs.NowNanos() - start)
	s.counters.noteBatch(n)
	s.counters.Gets.Add(int64(n))
	s.counters.GetMisses.Add(int64(n - hits))
	for i := 0; i < n; i++ {
		if found[i] {
			cs.out = AppendValueReply(cs.out, vals[i])
		} else {
			cs.out = AppendStatusReply(cs.out, StatusNotFound)
		}
	}
	cs.arena, cs.offs = cs.arena[:0], cs.offs[:0]
}

// writeOut flushes a burst's accumulated reply frames under the write
// deadline. The deadline stays armed after the flush and may lapse while
// the connection idles: every write on a connection goes through here
// and arms a fresh one first.
func (s *Server) writeOut(conn net.Conn, bw *connWriter, out []byte) error {
	if len(out) == 0 {
		return nil
	}
	if s.opts.WriteTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(s.opts.WriteTimeout))
	}
	if _, err := bw.Write(out); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	s.counters.BytesOut.Add(int64(len(out)))
	s.counters.FramesOut.Add(countFrames(out))
	return nil
}

// countFrames counts the frames in a well-formed reply buffer (for the
// frames_out counter; the buffer was built by the Append helpers).
func countFrames(out []byte) int64 {
	var n int64
	for off := 0; off+FrameHeaderSize <= len(out); n++ {
		length := int(uint32(out[off]) | uint32(out[off+1])<<8 | uint32(out[off+2])<<16 | uint32(out[off+3])<<24)
		off += FrameHeaderSize + length
	}
	return n
}

// replyFatal answers a framing fault on the first frame of a burst with
// a single ERR frame; the caller closes the connection.
func (s *Server) replyFatal(conn net.Conn, bw *connWriter, err error) {
	s.countFrameError(err)
	if isTimeout(err) {
		s.logf("wire: %s: idle timeout", conn.RemoteAddr())
		return // nothing useful to say to a silent peer
	}
	s.logf("wire: %s: %v", conn.RemoteAddr(), err)
	out := AppendErrReply(nil, err.Error())
	if werr := s.writeOut(conn, bw, out); werr != nil {
		s.logf("wire: %s: writing error reply: %v", conn.RemoteAddr(), werr)
	}
}

// countFrameError attributes a framing fault to its counter.
func (s *Server) countFrameError(err error) {
	if errors.Is(err, ErrTooBig) {
		s.counters.ErrTooBig.Add(1)
	} else {
		s.counters.ErrDecode.Add(1)
	}
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

// Pooled per-connection bufio wrappers: their 64 KiB buffers dominate a
// connection's footprint, so churny accept loops reuse them.
var (
	readerPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, connBufSize) }}
	writerPool = sync.Pool{New: func() any { return bufio.NewWriterSize(io.Discard, connBufSize) }}
)

type connWriter = bufio.Writer

func newConnReader(c net.Conn) *bufio.Reader {
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(c)
	return br
}

func putConnReader(br *bufio.Reader) {
	br.Reset(nil)
	readerPool.Put(br)
}

func newConnWriter(c net.Conn) *connWriter {
	bw := writerPool.Get().(*connWriter)
	bw.Reset(c)
	return bw
}

func putConnWriter(bw *connWriter) {
	bw.Reset(io.Discard)
	writerPool.Put(bw)
}
