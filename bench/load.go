package main

// Load generation over the wire protocol, with only internal/wire's
// public encode and parse functions.
//
// The open loop does not use loadgen -rate's method. loadgen sleeps
// until each op is due, then times the op from its due time; Go's
// timers wake up to ~1 ms late on a small VM, and that slack lands in
// every latency sample. At 20k GET/s on a 2-vCPU box the due-time p50
// read 516 µs while the p50 from the socket write read 63 µs. Here a
// sender goroutine per connection releases every request that is due
// each time it wakes, in one write, without waiting for replies. A
// receiver goroutine matches replies to requests in FIFO order (the
// protocol replies in request order). Latency runs from the socket
// write to the reply. How late the sender ran is recorded separately
// (gen.lag_p99_us), and a run whose lag p99 exceeds lagGate has not
// offered the load it claims.

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"slices"
	"sync"
	"time"

	"repro/internal/rng"
	"repro/internal/wire"
)

// lagGate is the largest generator lag p99 at which an open-loop run
// still offers its nominal rate.
const lagGate = 2 * time.Millisecond

const maxMGet = 16

// epoch anchors the benchmark's monotonic nanosecond clock.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// missed is the latency recorded for a failed request: it misses any
// latency limit.
const missed = math.MaxInt64

// pending is one request awaiting its reply.
type pending struct {
	sent, due int64
	op        wire.Op
	n         uint8 // keys carried
	ver       uint64
	keys      [maxMGet]uint32
}

// keyOps is the key operations a request performs: an MGET of 16 keys
// counts 16.
func (p *pending) keyOps() int64 { return int64(p.n) }

// fifo holds a connection's outstanding requests in send order.
type fifo struct {
	mu   sync.Mutex
	buf  []pending
	head int
	done bool // the sender has queued its last request
}

func (q *fifo) push(ps ...pending) {
	q.mu.Lock()
	if q.head > 4096 && q.head*2 > len(q.buf) {
		q.buf = q.buf[:copy(q.buf, q.buf[q.head:])]
		q.head = 0
	}
	q.buf = append(q.buf, ps...)
	q.mu.Unlock()
}

func (q *fifo) pop() (pending, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.head == len(q.buf) {
		return pending{}, false
	}
	p := q.buf[q.head]
	q.head++
	return p, true
}

// finish marks the sender done and reports whether nothing is
// outstanding.
func (q *fifo) finish() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.done = true
	return q.head == len(q.buf)
}

// drained reports whether the sender is done and every reply is in.
func (q *fifo) drained() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.done && q.head == len(q.buf)
}

func (q *fifo) reset() {
	q.mu.Lock()
	q.buf, q.head, q.done = q.buf[:0], 0, false
	q.mu.Unlock()
}

func (q *fifo) outstanding() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.buf) - q.head
}

// mix is the request mix of one phase.
type mix struct {
	get float64 // share of reads
	// readOwn makes reads pick keys this connection has written, for
	// reading back a workload that starts empty.
	readOwn bool
}

// client is one connection's load generator and reply checker.
type client struct {
	id  int
	wl  *workload
	ks  keyspace
	nc  net.Conn
	br  *bufio.Reader
	q   fifo
	ops rng.Source // request stream
	seq uint64     // SETs issued

	// acked is the newest version acknowledged for each key this
	// connection owns (SET keys are split between connections by
	// index mod conns), at index idx/conns. written lists those keys in
	// first-ack order.
	acked   []uint64
	written []uint32

	attempted, failed int64

	// Sender scratch.
	gen pending
	out []byte
	kb  [maxMGet][keyLen]byte
	kv  [maxMGet][]byte
	vb  [valLen]byte
	// Receiver scratch.
	rbuf []byte
	rep  wire.Reply
}

func dialClient(addr string, id int, wl *workload, ks keyspace, seed uint64) (*client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &client{
		id: id, wl: wl, ks: ks, nc: nc,
		br:    bufio.NewReaderSize(nc, 64<<10),
		ops:   rng.NewXoshiro256(rng.Stream(seed, id)),
		acked: make([]uint64, (wl.keys+conns-1)/conns),
	}, nil
}

// redial moves the client to a new connection, keeping what it has
// had acknowledged.
func (c *client) redial(addr string) error {
	c.nc.Close()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	c.nc = nc
	c.br.Reset(nc)
	c.q.reset()
	return nil
}

// next draws the next request of mix m into p.
func (c *client) next(p *pending, m mix) {
	if rng.Float64(c.ops) < m.get {
		p.n = uint8(c.wl.keysPerRead())
		p.op = wire.OpGet
		if p.n > 1 {
			p.op = wire.OpMGet
		}
		for i := 0; i < int(p.n); i++ {
			if m.readOwn && len(c.written) > 0 {
				p.keys[i] = c.written[rng.Uint64n(c.ops, uint64(len(c.written)))]
			} else {
				p.keys[i] = uint32(rng.Uint64n(c.ops, uint64(c.wl.keys)))
			}
		}
		return
	}
	p.op, p.n = wire.OpSet, 1
	p.keys[0] = uint32(rng.Uint64n(c.ops, uint64(c.wl.keys/conns)))*conns + uint32(c.id)
	c.seq++
	p.ver = version(c.id, c.seq)
}

// encode appends p's request frame to c.out.
func (c *client) encode(p *pending) {
	switch p.op {
	case wire.OpGet:
		c.out = wire.AppendGetRequest(c.out, c.ks.key(&c.kb[0], p.keys[0]))
	case wire.OpMGet:
		for i := 0; i < int(p.n); i++ {
			c.kv[i] = c.ks.key(&c.kb[i], p.keys[i])
		}
		c.out = wire.AppendMGetRequest(c.out, c.kv[:p.n])
	case wire.OpSet:
		c.out = wire.AppendSetRequest(c.out, c.ks.key(&c.kb[0], p.keys[0]), c.ks.value(&c.vb, p.keys[0], p.ver))
	}
}

// echoFrame is a request frame the size of the requests mix m draws,
// for the echo reference to send back.
func (c *client) echoFrame(m mix) []byte {
	p := pending{op: wire.OpSet, n: 1}
	if m.get >= 0.5 {
		p.op, p.n = wire.OpGet, uint8(c.wl.keysPerRead())
		if p.n > 1 {
			p.op = wire.OpMGet
		}
	}
	c.encode(&p)
	f := slices.Clone(c.out)
	c.out = c.out[:0]
	return f
}

func (c *client) flush() error {
	if len(c.out) == 0 {
		return nil
	}
	_, err := c.nc.Write(c.out)
	c.out = c.out[:0]
	return err
}

func (c *client) readFrame() ([]byte, error) {
	payload, buf, err := wire.ReadFrame(c.br, c.rbuf, wire.DefaultMaxFrame)
	c.rbuf = buf
	return payload, err
}

// settle checks the reply to p and counts it.
func (c *client) settle(p *pending, payload []byte) bool {
	c.attempted++
	if !c.checkReply(p, payload) {
		c.failed++
		return false
	}
	return true
}

// abort counts every outstanding request as failed after a transport
// error and returns the error.
func (c *client) abort(err error) error {
	n := int64(c.q.outstanding())
	c.attempted += n
	c.failed += n
	return fmt.Errorf("connection %d: %w", c.id, err)
}

// checkReply reports whether payload is a correct reply to p: a read
// must find every key, with an intact value of that key no older than
// the newest version this connection has had acknowledged for it; a
// SET must be acknowledged.
func (c *client) checkReply(p *pending, payload []byte) bool {
	switch p.op {
	case wire.OpGet:
		if wire.ParseReply(payload, wire.OpGet, &c.rep) != nil || c.rep.Status != wire.StatusOK {
			return false
		}
		return c.checkValue(p.keys[0], c.rep.Body)
	case wire.OpMGet:
		n, rest, err := wire.ParseMGetReplyHeader(payload)
		if err != nil || n != int(p.n) {
			return false
		}
		ok := true
		for i := 0; i < n; i++ {
			var val []byte
			var found bool
			if val, found, rest, err = wire.NextMGetValue(rest); err != nil {
				return false
			}
			ok = ok && found && c.checkValue(p.keys[i], val)
		}
		return ok && len(rest) == 0
	case wire.OpSet:
		if wire.ParseReply(payload, wire.OpSet, &c.rep) != nil || c.rep.Status != wire.StatusOK {
			return false
		}
		c.ack(p.keys[0], p.ver)
		return true
	}
	return false
}

func (c *client) checkValue(idx uint32, val []byte) bool {
	ver, ok := c.ks.check(val, idx)
	if !ok {
		return false
	}
	if int(idx)%conns != c.id {
		return true // another connection's key: only its integrity is known
	}
	if w := writerOf(ver); w != -1 && w != c.id {
		return false // only this connection writes this key
	}
	return ver >= c.acked[idx/conns]
}

func (c *client) ack(idx uint32, ver uint64) {
	slot := idx / conns
	if c.acked[slot] == 0 {
		c.written = append(c.written, idx)
	}
	if ver > c.acked[slot] {
		c.acked[slot] = ver
	}
}

// windows is how many equal windows a measured phase is split into. A
// phase reports the median over its windows, so one stalled window (a
// GC cycle, a noisy neighbour) barely moves the result.
const windows = 8

// phase is a measured stretch of time, split into windows.
type phase struct{ start, width int64 }

func newPhase(d time.Duration) phase { return phase{start: now(), width: int64(d) / windows} }

func (ph phase) end() int64 { return ph.start + windows*ph.width }

// window is the window t falls in, or -1 outside the phase.
func (ph phase) window(t int64) int {
	if t < ph.start || t >= ph.end() {
		return -1
	}
	return int((t - ph.start) / ph.width)
}

// closedCounts is what one connection completed in each window of a
// closed-loop phase.
type closedCounts struct {
	ops  [windows]int64
	last [windows]int64 // arrival of the window's last reply
	// lat, when not nil, takes the nanoseconds from socket write to
	// reply of each reply that arrived within the phase.
	lat *[]int64
}

// rates is each window's key operations per second, over the span from
// the previous window's last reply to this window's.
func (cc *closedCounts) rates(ph phase) [windows]float64 {
	var r [windows]float64
	prev := ph.start
	for w := range cc.ops {
		if cc.ops[w] == 0 {
			continue // a stalled window: rate 0, and the next one's span covers it
		}
		r[w] = float64(cc.ops[w]) / (float64(cc.last[w]-prev) / 1e9)
		prev = cc.last[w]
	}
	return r
}

// closedLoop keeps depth requests in flight until end, then collects
// the outstanding replies. gen fills the next request and reports false
// when there is none. Replies that arrive within ph are counted in cc.
func (c *client) closedLoop(depth int, end int64, ph phase, cc *closedCounts, gen func(*pending) bool) error {
	c.q.reset()
	inflight := 0
	issue := func() {
		p := &c.gen // a local would escape to the heap through gen
		*p = pending{}
		if now() >= end || !gen(p) {
			return
		}
		c.encode(p)
		p.sent = now()
		c.q.push(*p)
		inflight++
	}
	for inflight < depth {
		before := inflight
		issue()
		if inflight == before {
			break
		}
	}
	if err := c.flush(); err != nil {
		return c.abort(err)
	}
	for inflight > 0 {
		payload, err := c.readFrame()
		if err != nil {
			return c.abort(err)
		}
		t := now()
		p, _ := c.q.pop()
		inflight--
		ok := c.settle(&p, payload)
		if w := ph.window(t); w >= 0 {
			cc.ops[w] += p.keyOps()
			cc.last[w] = t
			if cc.lat != nil {
				lat := t - p.sent
				if !ok {
					lat = missed
				}
				*cc.lat = append(*cc.lat, lat)
			}
		}
		issue()
		if !wire.FrameBuffered(c.br) {
			if err := c.flush(); err != nil {
				return c.abort(err)
			}
		}
	}
	return nil
}

// sweep reads back every key this connection has had acknowledged,
// 16 keys per MGET.
func (c *client) sweep() error {
	off := 0
	return c.closedLoop(64, math.MaxInt64, phase{}, nil, func(p *pending) bool {
		if off == len(c.written) {
			return false
		}
		p.op = wire.OpMGet
		p.n = uint8(copy(p.keys[:], c.written[off:]))
		off += int(p.n)
		return true
	})
}

// openStats is what an open-loop phase measured.
type openStats struct {
	// Nanoseconds from socket write to reply, by the window the request
	// was sent in.
	read, write [windows][]int64
	lag         []int64 // ns from due time to socket write
	wakes       int64   // sender wake-ups that released requests
}

// openLoop offers mix m at rate requests per second through ph, with
// Poisson arrivals drawn from arrivals.
func (c *client) openLoop(m mix, rate float64, ph phase, arrivals rng.Source) (openStats, error) {
	var st openStats
	start, end := ph.start, ph.end()
	expect := int(rate * float64(end-start) / 1e9)
	st.lag = make([]int64, 0, expect)
	for w := range st.read {
		st.read[w] = make([]int64, 0, expect/windows)
	}
	c.q.reset()
	// Backstop: a server that stops replying fails the run instead of
	// hanging it.
	c.nc.SetReadDeadline(time.Now().Add(time.Duration(end-now()) + 30*time.Second))
	defer c.nc.SetReadDeadline(time.Time{})

	gap := func() int64 { return int64(rng.Exp(arrivals, rate) * 1e9) }
	var sendErr error
	sendDone := make(chan struct{})
	go func() {
		defer close(sendDone)
		due := start + gap()
		var batch []pending
		for due < end {
			t := now()
			if t < due {
				time.Sleep(time.Duration(due - t))
				continue
			}
			batch = batch[:0]
			for due <= t && due < end {
				p := pending{due: due}
				c.next(&p, m)
				c.encode(&p)
				batch = append(batch, p)
				due += gap()
			}
			sent := now()
			for i := range batch {
				batch[i].sent = sent
				st.lag = append(st.lag, sent-batch[i].due)
			}
			st.wakes++
			c.q.push(batch...)
			if sendErr = c.flush(); sendErr != nil {
				break
			}
		}
		if c.q.finish() {
			// Nothing is outstanding: wake a receiver blocked on a read
			// that no reply will end.
			c.nc.SetReadDeadline(time.Now())
		}
	}()

	var recvErr error
	for !c.q.drained() {
		payload, err := c.readFrame()
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) && c.q.drained() {
				break
			}
			recvErr = c.abort(err)
			c.nc.Close() // unblocks the sender's write, if any
			break
		}
		t := now()
		p, ok := c.q.pop()
		if !ok {
			recvErr = c.abort(errors.New("reply to no request"))
			c.nc.Close()
			break
		}
		lat := t - p.sent
		if !c.settle(&p, payload) {
			lat = missed
		}
		w := max(ph.window(p.sent), 0)
		if p.op == wire.OpSet {
			st.write[w] = append(st.write[w], lat)
		} else {
			st.read[w] = append(st.read[w], lat)
		}
	}
	<-sendDone
	if recvErr == nil && sendErr != nil {
		recvErr = c.abort(sendErr)
	}
	return st, recvErr
}

// windowed is the median over windows of each window's q-quantile of
// by; windows without samples are skipped.
func windowed(by [windows][]int64, q float64) float64 {
	var per []float64
	for _, lat := range by {
		if len(lat) > 0 {
			s := slices.Clone(lat)
			slices.Sort(s)
			per = append(per, quantile(s, q))
		}
	}
	return median(per)
}

// all merges reads and writes window by window.
func (st *openStats) all() [windows][]int64 {
	var by [windows][]int64
	for w := range by {
		by[w] = append(slices.Clone(st.read[w]), st.write[w]...)
	}
	return by
}

// dialAll opens one client per connection.
func dialAll(addr string, wl *workload, ks keyspace, seed uint64) ([]*client, error) {
	cs := make([]*client, 0, conns)
	for i := 0; i < conns; i++ {
		c, err := dialClient(addr, i, wl, ks, seed)
		if err != nil {
			closeAll(cs)
			return nil, err
		}
		cs = append(cs, c)
	}
	return cs, nil
}

func closeAll(cs []*client) {
	for _, c := range cs {
		c.nc.Close()
	}
}

// closedPhase drives every client closed loop for d, with depth
// requests in flight on each, and returns the phase and what each
// client completed in it. With keepLat, each client's reply latencies
// are kept too.
func closedPhase(cs []*client, m mix, depth int, d time.Duration, keepLat bool) (phase, []closedCounts, error) {
	ph := newPhase(d)
	ccs := make([]closedCounts, len(cs))
	errs := make([]error, len(cs))
	var wg sync.WaitGroup
	for i, c := range cs {
		if keepLat {
			ccs[i].lat = new([]int64)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = c.closedLoop(depth, ph.end(), ph, &ccs[i], func(p *pending) bool { c.next(p, m); return true })
		}()
	}
	wg.Wait()
	return ph, ccs, errors.Join(errs...)
}

// runClosed drives every client closed loop for d and returns the
// goodput: the median over the phase's windows of the key operations
// completed per second.
func runClosed(cs []*client, m mix, depth int, d time.Duration) (float64, error) {
	ph, ccs, err := closedPhase(cs, m, depth, d, false)
	total := make([]float64, windows)
	for i := range ccs {
		for w, r := range ccs[i].rates(ph) {
			total[w] += r
		}
	}
	return median(total), err
}

// roundTrips runs every client with one request in flight for d and
// returns the reply latencies, sorted.
func roundTrips(cs []*client, m mix, d time.Duration) ([]int64, error) {
	_, ccs, err := closedPhase(cs, m, 1, d, true)
	var lat []int64
	for _, cc := range ccs {
		lat = append(lat, *cc.lat...)
	}
	slices.Sort(lat)
	return lat, err
}

// runOpen drives every client open loop for d at rate requests per
// second in total, and merges what they measured.
func runOpen(cs []*client, m mix, rate float64, d time.Duration, seed uint64) (openStats, error) {
	ph := newPhase(d)
	sts := make([]openStats, len(cs))
	errs := make([]error, len(cs))
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arrivals := rng.NewXoshiro256(rng.Stream(seed^0xA11, i))
			sts[i], errs[i] = c.openLoop(m, rate/float64(len(cs)), ph, arrivals)
		}()
	}
	wg.Wait()
	var all openStats
	for _, st := range sts {
		for w := range all.read {
			all.read[w] = append(all.read[w], st.read[w]...)
			all.write[w] = append(all.write[w], st.write[w]...)
		}
		all.lag = append(all.lag, st.lag...)
		all.wakes += st.wakes
	}
	return all, errors.Join(errs...)
}

func counts(cs []*client) (attempted, failed int64) {
	for _, c := range cs {
		attempted += c.attempted
		failed += c.failed
	}
	return attempted, failed
}
