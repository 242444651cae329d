package wire

// The pipelining client. The synchronous methods (Get/Set/Delete/MGet/
// Stats) are one round trip each; the Queue*/Flush/Recv* primitives
// expose the pipeline directly — queue any number of requests, flush
// the socket once, then receive the replies strictly in queue order.
// A Client is single-goroutine (callers wanting concurrency open one
// Client per goroutine, the way loadgen's workers do).

import (
	"bufio"
	"errors"
	"fmt"
	"net"
)

// RemoteError is an ERR reply's message, surfaced as the error of the
// request that provoked it.
type RemoteError string

func (e RemoteError) Error() string { return "wire: server error: " + string(e) }

// Client speaks the wire protocol over one connection.
type Client struct {
	conn     net.Conn
	br       *bufio.Reader
	bw       *bufio.Writer
	rbuf     []byte // frame read buffer (replies are views into it)
	pending  []Op   // queued, unanswered request ops in order
	maxFrame int
	err      error // sticky: a framing fault poisons the connection
}

// Dial connects to a wire server at addr (TCP).
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	return &Client{
		conn:     conn,
		br:       bufio.NewReaderSize(conn, connBufSize),
		bw:       bufio.NewWriterSize(conn, connBufSize),
		maxFrame: DefaultMaxFrame,
	}
}

// SetMaxFrame overrides the reply-size bound (values larger than the
// default frame budget need a matching server limit anyway).
func (c *Client) SetMaxFrame(n int) { c.maxFrame = n }

// Close closes the connection. Queued-but-unreceived replies are lost.
func (c *Client) Close() error { return c.conn.Close() }

// fail poisons the client: once framing is in doubt (or the socket
// errored) every later call returns the same error.
func (c *Client) fail(err error) error {
	if c.err == nil {
		c.err = err
	}
	return c.err
}

// QueueGet pipelines a GET without flushing.
func (c *Client) QueueGet(key []byte) error {
	return c.queue(OpGet, AppendGetRequest(nil, key))
}

// QueueSet pipelines a SET without flushing.
func (c *Client) QueueSet(key, val []byte) error {
	return c.queue(OpSet, AppendSetRequest(nil, key, val))
}

// QueueDelete pipelines a DEL without flushing.
func (c *Client) QueueDelete(key []byte) error {
	return c.queue(OpDel, AppendDelRequest(nil, key))
}

// QueueMGet pipelines an MGET without flushing.
func (c *Client) QueueMGet(keys [][]byte) error {
	if len(keys) > MaxMGetKeys {
		return fmt.Errorf("wire: MGET of %d keys exceeds MaxMGetKeys (%d)", len(keys), MaxMGetKeys)
	}
	return c.queue(OpMGet, AppendMGetRequest(nil, keys))
}

// QueueStats pipelines a STATS without flushing.
func (c *Client) QueueStats() error {
	return c.queue(OpStats, AppendStatsRequest(nil))
}

func (c *Client) queue(op Op, frame []byte) error {
	if c.err != nil {
		return c.err
	}
	if _, err := c.bw.Write(frame); err != nil {
		return c.fail(err)
	}
	c.pending = append(c.pending, op)
	return nil
}

// Flush writes every queued request to the socket.
func (c *Client) Flush() error {
	if c.err != nil {
		return c.err
	}
	if err := c.bw.Flush(); err != nil {
		return c.fail(err)
	}
	return nil
}

// Pending returns how many replies are owed.
func (c *Client) Pending() int { return len(c.pending) }

// recv reads the next reply frame, checking it answers op.
func (c *Client) recv(op Op) ([]byte, error) {
	if c.err != nil {
		return nil, c.err
	}
	if len(c.pending) == 0 || c.pending[0] != op {
		return nil, c.fail(fmt.Errorf("wire: Recv%v out of order (pending %d, head %v)", op, len(c.pending), c.head()))
	}
	c.pending = c.pending[1:]
	payload, buf, err := ReadFrame(c.br, c.rbuf, c.maxFrame)
	c.rbuf = buf
	if err != nil {
		return nil, c.fail(err)
	}
	return payload, nil
}

func (c *Client) head() Op {
	if len(c.pending) == 0 {
		return 0
	}
	return c.pending[0]
}

// RecvGet receives the next reply, which must answer a queued GET. val
// is a view into the client's read buffer — valid until the next Recv*.
func (c *Client) RecvGet() (val []byte, ok bool, err error) {
	payload, err := c.recv(OpGet)
	if err != nil {
		return nil, false, err
	}
	var rep Reply
	if err := ParseReply(payload, OpGet, &rep); err != nil {
		return nil, false, c.fail(err)
	}
	switch rep.Status {
	case StatusOK:
		return rep.Body, true, nil
	case StatusNotFound:
		return nil, false, nil
	default:
		return nil, false, RemoteError(rep.Body)
	}
}

// RecvSet receives the next reply, which must answer a queued SET.
func (c *Client) RecvSet() error {
	payload, err := c.recv(OpSet)
	if err != nil {
		return err
	}
	var rep Reply
	if err := ParseReply(payload, OpSet, &rep); err != nil {
		return c.fail(err)
	}
	if rep.Status != StatusOK {
		return RemoteError(rep.Body)
	}
	return nil
}

// RecvDelete receives the next reply, which must answer a queued DEL,
// reporting whether the key was present.
func (c *Client) RecvDelete() (bool, error) {
	payload, err := c.recv(OpDel)
	if err != nil {
		return false, err
	}
	var rep Reply
	if err := ParseReply(payload, OpDel, &rep); err != nil {
		return false, c.fail(err)
	}
	switch rep.Status {
	case StatusOK:
		return true, nil
	case StatusNotFound:
		return false, nil
	default:
		return false, RemoteError(rep.Body)
	}
}

// RecvMGet receives the next reply, which must answer a queued MGET of
// len(found) keys. vals[i] (a read-buffer view, valid until the next
// Recv*) and found[i] are filled per key; it returns the hit count.
func (c *Client) RecvMGet(vals [][]byte, found []bool) (int, error) {
	payload, err := c.recv(OpMGet)
	if err != nil {
		return 0, err
	}
	count, rest, err := ParseMGetReplyHeader(payload)
	if err == errRemote {
		return 0, RemoteError(rest)
	}
	if err != nil {
		return 0, c.fail(err)
	}
	if count != len(found) || len(vals) < count {
		return 0, c.fail(fmt.Errorf("wire: MGET reply carries %d keys, caller sized %d", count, len(found)))
	}
	hits := 0
	for i := 0; i < count; i++ {
		var val []byte
		var ok bool
		if val, ok, rest, err = NextMGetValue(rest); err != nil {
			return hits, c.fail(err)
		}
		vals[i], found[i] = val, ok
		if ok {
			hits++
		}
	}
	if len(rest) != 0 {
		return hits, c.fail(errTrailing)
	}
	return hits, nil
}

// RecvStats receives the next reply, which must answer a queued STATS.
func (c *Client) RecvStats() (string, error) {
	payload, err := c.recv(OpStats)
	if err != nil {
		return "", err
	}
	var rep Reply
	if err := ParseReply(payload, OpStats, &rep); err != nil {
		return "", c.fail(err)
	}
	if rep.Status != StatusOK {
		return "", RemoteError(rep.Body)
	}
	return string(rep.Body), nil
}

// Get is a synchronous GET: one round trip. val is a read-buffer view,
// valid until the next call on this client.
func (c *Client) Get(key []byte) (val []byte, ok bool, err error) {
	if err := c.QueueGet(key); err != nil {
		return nil, false, err
	}
	if err := c.Flush(); err != nil {
		return nil, false, err
	}
	return c.RecvGet()
}

// Set is a synchronous SET: the ack means the write is durable to
// whatever discipline the server was opened with (fsynced WAL by
// default under cmd/served).
func (c *Client) Set(key, val []byte) error {
	if err := c.QueueSet(key, val); err != nil {
		return err
	}
	if err := c.Flush(); err != nil {
		return err
	}
	return c.RecvSet()
}

// Delete is a synchronous DEL.
func (c *Client) Delete(key []byte) (bool, error) {
	if err := c.QueueDelete(key); err != nil {
		return false, err
	}
	if err := c.Flush(); err != nil {
		return false, err
	}
	return c.RecvDelete()
}

// MGet is a synchronous MGET. vals and found must be len(keys) long;
// vals entries are read-buffer views, valid until the next call.
func (c *Client) MGet(keys [][]byte, vals [][]byte, found []bool) (int, error) {
	if len(vals) < len(keys) || len(found) != len(keys) {
		return 0, errors.New("wire: MGet result slices must be len(keys)")
	}
	if err := c.QueueMGet(keys); err != nil {
		return 0, err
	}
	if err := c.Flush(); err != nil {
		return 0, err
	}
	return c.RecvMGet(vals, found)
}

// Stats is a synchronous STATS, returning the server registry's
// Prometheus text exposition (Server.Registry).
func (c *Client) Stats() (string, error) {
	if err := c.QueueStats(); err != nil {
		return "", err
	}
	if err := c.Flush(); err != nil {
		return "", err
	}
	return c.RecvStats()
}
