// Package wire is the network protocol tier: a pipelined,
// memcached/RESP-style binary-framed request/reply protocol
// (GET/SET/DEL/MGET/STATS) over a byte stream, plus the server that
// speaks it on top of any batched key-value backend and a pipelining
// client for load generators and tests.
//
// The framing reuses internal/persist's discipline — little-endian
// integers, length prefix, CRC32-C over the payload — so a frame torn
// by the network or a lying peer is detected the same way a torn WAL
// record is:
//
//	frame:
//	  length uint32   payload byte length
//	  crc    uint32   CRC32-C of the payload
//	  payload [length]byte
//
//	request payload:
//	  op uint8   1 GET · 2 SET · 3 DEL · 4 MGET · 5 STATS
//	  GET:   keyLen uvarint | key
//	  SET:   keyLen uvarint | key | valLen uvarint | val
//	  DEL:   keyLen uvarint | key
//	  MGET:  count uvarint, then count × (keyLen uvarint | key)
//	  STATS: (empty)
//
//	reply payload:
//	  status uint8   0 OK · 1 NOT_FOUND · 2 ERR
//	  GET   OK: valLen uvarint | val     NOT_FOUND: (empty)
//	  SET   OK: (empty)
//	  DEL   OK / NOT_FOUND: (empty)
//	  MGET  OK: count uvarint, then count × (found uint8 [| valLen uvarint | val])
//	  STATS OK: the server registry's Prometheus text exposition
//	  ERR:  message (verbatim bytes; the connection closes after a
//	        framing/protocol ERR, stays open after an application ERR)
//
// Replies come back strictly in request order, so a client may pipeline
// arbitrarily many requests before reading a single reply; the server
// decodes as many pipelined requests as one socket read yielded and
// coalesces each run of consecutive GETs (and every MGET) into one
// batched-backend lookup — the per-connection batching that lets the
// map's phased GetBatch tier amortize hashing and overlap cache misses
// across *unrelated* clients.
//
// Every parser here trusts nothing: lengths are bounded before use, a
// CRC mismatch or malformed payload is an error (never a panic, never
// an allocation sized by the wire), and the per-connection decode path
// is zero-allocation steady-state (//repro:noalloc, enforced by
// reprolint).
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
)

// Op is a request verb.
type Op uint8

// Request verbs.
const (
	OpGet   Op = 1
	OpSet   Op = 2
	OpDel   Op = 3
	OpMGet  Op = 4
	OpStats Op = 5
)

// String returns the verb's display name.
func (op Op) String() string {
	switch op {
	case OpGet:
		return "GET"
	case OpSet:
		return "SET"
	case OpDel:
		return "DEL"
	case OpMGet:
		return "MGET"
	case OpStats:
		return "STATS"
	default:
		return "Op(?)"
	}
}

// Status is a reply's first payload byte.
type Status uint8

// Reply statuses.
const (
	StatusOK       Status = 0
	StatusNotFound Status = 1
	StatusErr      Status = 2
)

// Protocol limits.
const (
	// FrameHeaderSize is the length + CRC prefix of every frame.
	FrameHeaderSize = 8

	// DefaultMaxFrame bounds one frame's payload unless the server or
	// client is configured otherwise: large enough for a 1000-key MGET of
	// sizable values, small enough that a lying length prefix cannot make
	// either side allocate absurdly.
	DefaultMaxFrame = 1 << 20

	// MaxMGetKeys bounds one MGET's key count regardless of frame size
	// (each key costs ≥ 2 payload bytes, so this is the count guard that
	// makes the per-key bookkeeping allocation-bounded too).
	MaxMGetKeys = 1 << 16
)

// castagnoli is the same CRC32-C polynomial the persist subsystem
// frames with.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Protocol errors. ErrTooBig and everything wrapping ErrMalformed are
// connection-fatal: once framing is in doubt, nothing later on the
// stream can be trusted.
var (
	// ErrTooBig reports a frame whose length prefix exceeds the
	// configured maximum.
	ErrTooBig = errors.New("wire: frame exceeds max frame size")
	// ErrMalformed reports a framed but unparseable payload (bad CRC,
	// unknown op or status, lying inner length, trailing bytes).
	ErrMalformed = errors.New("wire: malformed frame")
	// errCRC etc. give ErrMalformed its specific shapes; all satisfy
	// errors.Is(err, ErrMalformed).
	errCRC      = wrapMalformed("payload CRC mismatch")
	errOp       = wrapMalformed("unknown request op")
	errStatus   = wrapMalformed("unknown reply status")
	errTruncOp  = wrapMalformed("payload shorter than its lengths claim")
	errTrailing = wrapMalformed("trailing bytes after payload fields")
	errKeyCount = wrapMalformed("MGET key count exceeds MaxMGetKeys")
)

func wrapMalformed(msg string) error { return errors.Join(ErrMalformed, errors.New(msg)) }

// beginFrame reserves a frame header in dst, returning the appended
// slice and the header's offset for endFrame.
//
//repro:noalloc
func beginFrame(dst []byte) ([]byte, int) {
	mark := len(dst)
	return append(dst, 0, 0, 0, 0, 0, 0, 0, 0), mark
}

// endFrame backfills the header reserved at mark with the length and
// CRC of everything appended since.
//
//repro:noalloc
func endFrame(b []byte, mark int) []byte {
	payload := b[mark+FrameHeaderSize:]
	binary.LittleEndian.PutUint32(b[mark:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[mark+4:], crc32.Checksum(payload, castagnoli))
	return b
}

// AppendGetRequest appends a framed GET request for key.
//
//repro:noalloc
func AppendGetRequest(dst, key []byte) []byte {
	dst, m := beginFrame(dst)
	dst = append(dst, byte(OpGet))
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	return endFrame(dst, m)
}

// AppendSetRequest appends a framed SET request for key → val.
//
//repro:noalloc
func AppendSetRequest(dst, key, val []byte) []byte {
	dst, m := beginFrame(dst)
	dst = append(dst, byte(OpSet))
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	dst = binary.AppendUvarint(dst, uint64(len(val)))
	dst = append(dst, val...)
	return endFrame(dst, m)
}

// AppendDelRequest appends a framed DEL request for key.
//
//repro:noalloc
func AppendDelRequest(dst, key []byte) []byte {
	dst, m := beginFrame(dst)
	dst = append(dst, byte(OpDel))
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	return endFrame(dst, m)
}

// AppendMGetRequest appends a framed MGET request for keys.
//
//repro:noalloc
func AppendMGetRequest(dst []byte, keys [][]byte) []byte {
	dst, m := beginFrame(dst)
	dst = append(dst, byte(OpMGet))
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		dst = binary.AppendUvarint(dst, uint64(len(k)))
		dst = append(dst, k...)
	}
	return endFrame(dst, m)
}

// AppendStatsRequest appends a framed STATS request.
//
//repro:noalloc
func AppendStatsRequest(dst []byte) []byte {
	dst, m := beginFrame(dst)
	dst = append(dst, byte(OpStats))
	return endFrame(dst, m)
}

// AppendStatusReply appends a framed bare-status reply (SET ok, DEL,
// GET miss).
//
//repro:noalloc
func AppendStatusReply(dst []byte, st Status) []byte {
	dst, m := beginFrame(dst)
	dst = append(dst, byte(st))
	return endFrame(dst, m)
}

// AppendValueReply appends a framed GET-hit reply carrying val.
//
//repro:noalloc
func AppendValueReply(dst, val []byte) []byte {
	dst, m := beginFrame(dst)
	dst = append(dst, byte(StatusOK))
	dst = binary.AppendUvarint(dst, uint64(len(val)))
	dst = append(dst, val...)
	return endFrame(dst, m)
}

// AppendTextReply appends a framed OK reply whose body is verbatim text
// (the STATS reply).
//
//repro:noalloc
func AppendTextReply(dst, text []byte) []byte {
	dst, m := beginFrame(dst)
	dst = append(dst, byte(StatusOK))
	dst = append(dst, text...)
	return endFrame(dst, m)
}

// AppendErrReply appends a framed ERR reply carrying msg.
//
//repro:noalloc
func AppendErrReply(dst []byte, msg string) []byte {
	dst, m := beginFrame(dst)
	dst = append(dst, byte(StatusErr))
	dst = append(dst, msg...)
	return endFrame(dst, m)
}

// AppendMGetReply appends a framed MGET reply: vals[i]/found[i] for the
// request's i-th key.
//
//repro:noalloc
func AppendMGetReply(dst []byte, vals [][]byte, found []bool) []byte {
	dst, m := beginFrame(dst)
	dst = append(dst, byte(StatusOK))
	dst = binary.AppendUvarint(dst, uint64(len(found)))
	for i, ok := range found {
		if !ok {
			dst = append(dst, 0)
			continue
		}
		dst = append(dst, 1)
		dst = binary.AppendUvarint(dst, uint64(len(vals[i])))
		dst = append(dst, vals[i]...)
	}
	return endFrame(dst, m)
}

// ReadFrame reads one frame from br, reusing buf (growing it only for a
// frame within maxFrame), and returns the payload as a view of the
// returned buffer — valid until the next ReadFrame with the same
// buffer. A clean EOF at a frame boundary is io.EOF; an EOF inside a
// frame is io.ErrUnexpectedEOF; an oversized length is ErrTooBig; a CRC
// mismatch is ErrMalformed. None of these paths allocate proportionally
// to attacker-controlled lengths: growth is capped by maxFrame before
// the first payload byte is read.
//
//repro:noalloc
//repro:boundedinput
func ReadFrame(br *bufio.Reader, buf []byte, maxFrame int) (payload, newBuf []byte, err error) {
	return appendFrame(br, buf[:0], maxFrame)
}

// appendFrame is ReadFrame appending: the payload lands after buf's
// bytes, and is a view of newBuf's tail. Views of bytes appended before
// stay valid even when growth moves buf, since nothing writes to a
// backing array once a larger one has replaced it. On error newBuf
// holds buf's bytes alone.
//
//repro:noalloc
//repro:boundedinput
func appendFrame(br *bufio.Reader, buf []byte, maxFrame int) (payload, newBuf []byte, err error) {
	// Peek reads the header in br's own buffer: a local array passed to
	// io.ReadFull would escape through its io.Reader and cost one heap
	// allocation per frame.
	hdr, err := br.Peek(FrameHeaderSize)
	if err != nil {
		if len(hdr) == 0 {
			return nil, buf, err // io.EOF here is a clean close
		}
		return nil, buf, unexpectedEOF(err)
	}
	length := binary.LittleEndian.Uint32(hdr[0:])
	crc := binary.LittleEndian.Uint32(hdr[4:])
	_, _ = br.Discard(FrameHeaderSize) // cannot fail: Peek buffered these bytes
	if int64(length) > int64(maxFrame) {
		return nil, buf, ErrTooBig
	}
	n := len(buf)
	if cap(buf)-n < int(length) {
		buf = append(buf, make([]byte, length)...)[:n] //repro:allocok amortized buffer growth, at most maxFrame per frame
	}
	payload = buf[n : n+int(length)]
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, buf, unexpectedEOF(err)
	}
	if crc32.Checksum(payload, castagnoli) != crc {
		return nil, buf, errCRC
	}
	return payload, buf[:n+int(length)], nil
}

// unexpectedEOF maps a mid-frame EOF to io.ErrUnexpectedEOF (other read
// errors pass through).
//
//repro:noalloc
func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// FrameBuffered reports whether br already holds one complete frame, so
// a pipelining loop can keep decoding without risking a blocking read
// while replies are owed.
//
//repro:noalloc
func FrameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < FrameHeaderSize {
		return false
	}
	hdr, err := br.Peek(FrameHeaderSize)
	if err != nil {
		return false
	}
	length := binary.LittleEndian.Uint32(hdr)
	return int64(br.Buffered()) >= FrameHeaderSize+int64(length)
}

// Request is one decoded request. Key, Val and Keys are views into the
// frame payload (valid until it is reused); Keys is scratch owned by
// the Request and reused across ParseRequest calls.
type Request struct {
	Op   Op
	Key  []byte
	Val  []byte
	Keys [][]byte
}

// ParseRequest decodes a request payload into req, erroring (never
// panicking) on any malformed shape.
//
//repro:noalloc
//repro:boundedinput
func ParseRequest(payload []byte, req *Request) error {
	req.Key, req.Val, req.Keys = nil, nil, req.Keys[:0]
	if len(payload) == 0 {
		return errTruncOp
	}
	req.Op = Op(payload[0])
	rest := payload[1:]
	var ok bool
	switch req.Op {
	case OpGet, OpDel:
		if req.Key, rest, ok = splitLenPrefixed(rest); !ok {
			return errTruncOp
		}
	case OpSet:
		if req.Key, rest, ok = splitLenPrefixed(rest); !ok {
			return errTruncOp
		}
		if req.Val, rest, ok = splitLenPrefixed(rest); !ok {
			return errTruncOp
		}
	case OpMGet:
		count, w := binary.Uvarint(rest)
		if w <= 0 {
			return errTruncOp
		}
		if count > MaxMGetKeys {
			return errKeyCount
		}
		rest = rest[w:]
		for i := uint64(0); i < count; i++ {
			var key []byte
			if key, rest, ok = splitLenPrefixed(rest); !ok {
				return errTruncOp
			}
			req.Keys = append(req.Keys, key) //repro:allocok amortized request scratch growth, bounded by MaxMGetKeys
		}
	case OpStats:
	default:
		return errOp
	}
	if len(rest) != 0 {
		return errTrailing
	}
	return nil
}

// splitLenPrefixed splits one uvarint-length-prefixed field off p. The
// length is validated against the bytes actually present before any
// use, so a lying prefix cannot index out of bounds.
//
//repro:noalloc
//repro:boundedinput
func splitLenPrefixed(p []byte) (field, rest []byte, ok bool) {
	n, w := binary.Uvarint(p)
	if w <= 0 || n > uint64(len(p)-w) {
		return nil, nil, false
	}
	return p[w : w+int(n)], p[w+int(n):], true
}

// Reply is one decoded non-MGET reply. Body is a view into the frame
// payload: the GET value, the STATS text, or the ERR message.
type Reply struct {
	Status Status
	Body   []byte
}

// ParseReply decodes a GET/SET/DEL/STATS reply payload for the given
// request op.
//
//repro:noalloc
//repro:boundedinput
func ParseReply(payload []byte, op Op, rep *Reply) error {
	rep.Body = nil
	if len(payload) == 0 {
		return errTruncOp
	}
	rep.Status = Status(payload[0])
	rest := payload[1:]
	switch rep.Status {
	case StatusErr:
		rep.Body = rest
		return nil
	case StatusOK, StatusNotFound:
	default:
		return errStatus
	}
	switch op {
	case OpGet:
		if rep.Status == StatusOK {
			var ok bool
			if rep.Body, rest, ok = splitLenPrefixed(rest); !ok {
				return errTruncOp
			}
		}
	case OpStats:
		rep.Body = rest
		return nil
	case OpSet, OpDel:
	default:
		return errOp
	}
	if len(rest) != 0 {
		return errTrailing
	}
	return nil
}

// ParseMGetReplyHeader validates an MGET reply's status and count,
// returning the count and the per-key fields for NextMGetValue.
//
//repro:noalloc
//repro:boundedinput
func ParseMGetReplyHeader(payload []byte) (count int, rest []byte, err error) {
	if len(payload) == 0 {
		return 0, nil, errTruncOp
	}
	if st := Status(payload[0]); st != StatusOK {
		if st == StatusErr {
			return 0, payload[1:], errRemote
		}
		return 0, nil, errStatus
	}
	n, w := binary.Uvarint(payload[1:])
	if w <= 0 {
		return 0, nil, errTruncOp
	}
	if n > MaxMGetKeys {
		return 0, nil, errKeyCount
	}
	return int(n), payload[1+w:], nil
}

// errRemote marks an ERR status inside an MGET reply; the caller turns
// the accompanying bytes into a *RemoteError.
var errRemote = errors.New("wire: remote error reply")

// NextMGetValue splits one (found, value) pair off an MGET reply's
// per-key fields. val is a payload view, nil when !found.
//
//repro:noalloc
//repro:boundedinput
func NextMGetValue(rest []byte) (val []byte, found bool, newRest []byte, err error) {
	if len(rest) == 0 {
		return nil, false, nil, errTruncOp
	}
	switch rest[0] {
	case 0:
		return nil, false, rest[1:], nil
	case 1:
		val, rest, ok := splitLenPrefixed(rest[1:])
		if !ok {
			return nil, false, nil, errTruncOp
		}
		return val, true, rest, nil
	default:
		return nil, false, nil, errStatus
	}
}
