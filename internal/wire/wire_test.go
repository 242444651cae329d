package wire

// Codec conformance: every encode round-trips through its parser, and
// every malformed shape — torn frame, lying length, bad CRC, unknown
// op/status, trailing bytes, absurd counts — comes back as an error,
// never a panic and never an attacker-sized allocation.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"strings"
	"testing"
)

// readOne frames b through ReadFrame and returns the payload.
func readOne(t *testing.T, frame []byte, maxFrame int) ([]byte, error) {
	t.Helper()
	br := bufio.NewReader(bytes.NewReader(frame))
	payload, _, err := ReadFrame(br, nil, maxFrame)
	return payload, err
}

func TestRequestRoundTrip(t *testing.T) {
	key, val := []byte("the-key"), []byte("a value with \x00 bytes")
	cases := []struct {
		name  string
		frame []byte
		check func(t *testing.T, req *Request)
	}{
		{"get", AppendGetRequest(nil, key), func(t *testing.T, req *Request) {
			if req.Op != OpGet || !bytes.Equal(req.Key, key) {
				t.Fatalf("GET decoded as %v key %q", req.Op, req.Key)
			}
		}},
		{"set", AppendSetRequest(nil, key, val), func(t *testing.T, req *Request) {
			if req.Op != OpSet || !bytes.Equal(req.Key, key) || !bytes.Equal(req.Val, val) {
				t.Fatalf("SET decoded as %v key %q val %q", req.Op, req.Key, req.Val)
			}
		}},
		{"set-empty-val", AppendSetRequest(nil, key, nil), func(t *testing.T, req *Request) {
			if req.Op != OpSet || len(req.Val) != 0 {
				t.Fatalf("empty-val SET decoded as %v val %q", req.Op, req.Val)
			}
		}},
		{"del", AppendDelRequest(nil, key), func(t *testing.T, req *Request) {
			if req.Op != OpDel || !bytes.Equal(req.Key, key) {
				t.Fatalf("DEL decoded as %v key %q", req.Op, req.Key)
			}
		}},
		{"mget", AppendMGetRequest(nil, [][]byte{key, nil, []byte("k2")}), func(t *testing.T, req *Request) {
			if req.Op != OpMGet || len(req.Keys) != 3 {
				t.Fatalf("MGET decoded as %v with %d keys", req.Op, len(req.Keys))
			}
			if !bytes.Equal(req.Keys[0], key) || len(req.Keys[1]) != 0 || !bytes.Equal(req.Keys[2], []byte("k2")) {
				t.Fatalf("MGET keys decoded as %q", req.Keys)
			}
		}},
		{"stats", AppendStatsRequest(nil), func(t *testing.T, req *Request) {
			if req.Op != OpStats {
				t.Fatalf("STATS decoded as %v", req.Op)
			}
		}},
	}
	var req Request // reused across cases: Keys scratch must not leak between ops
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			payload, err := readOne(t, tc.frame, DefaultMaxFrame)
			if err != nil {
				t.Fatalf("ReadFrame: %v", err)
			}
			if err := ParseRequest(payload, &req); err != nil {
				t.Fatalf("ParseRequest: %v", err)
			}
			tc.check(t, &req)
		})
	}
}

func TestReplyRoundTrip(t *testing.T) {
	var rep Reply
	parse := func(t *testing.T, frame []byte, op Op) *Reply {
		t.Helper()
		payload, err := readOne(t, frame, DefaultMaxFrame)
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if err := ParseReply(payload, op, &rep); err != nil {
			t.Fatalf("ParseReply: %v", err)
		}
		return &rep
	}

	if r := parse(t, AppendValueReply(nil, []byte("v")), OpGet); r.Status != StatusOK || !bytes.Equal(r.Body, []byte("v")) {
		t.Fatalf("GET hit decoded as %v %q", r.Status, r.Body)
	}
	if r := parse(t, AppendStatusReply(nil, StatusNotFound), OpGet); r.Status != StatusNotFound {
		t.Fatalf("GET miss decoded as %v", r.Status)
	}
	if r := parse(t, AppendStatusReply(nil, StatusOK), OpSet); r.Status != StatusOK {
		t.Fatalf("SET ok decoded as %v", r.Status)
	}
	if r := parse(t, AppendTextReply(nil, []byte("a 1\nb 2\n")), OpStats); string(r.Body) != "a 1\nb 2\n" {
		t.Fatalf("STATS decoded as %q", r.Body)
	}
	if r := parse(t, AppendErrReply(nil, "boom"), OpSet); r.Status != StatusErr || string(r.Body) != "boom" {
		t.Fatalf("ERR decoded as %v %q", r.Status, r.Body)
	}
}

func TestMGetReplyRoundTrip(t *testing.T) {
	vals := [][]byte{[]byte("v0"), nil, []byte(""), []byte("v3")}
	found := []bool{true, false, true, true}
	payload, err := readOne(t, AppendMGetReply(nil, vals, found), DefaultMaxFrame)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	count, rest, err := ParseMGetReplyHeader(payload)
	if err != nil {
		t.Fatalf("header: %v", err)
	}
	if count != len(found) {
		t.Fatalf("count = %d, want %d", count, len(found))
	}
	for i := 0; i < count; i++ {
		val, ok, r, err := NextMGetValue(rest)
		if err != nil {
			t.Fatalf("key %d: %v", i, err)
		}
		rest = r
		if ok != found[i] || (ok && !bytes.Equal(val, vals[i])) {
			t.Fatalf("key %d decoded as (%q, %v), want (%q, %v)", i, val, ok, vals[i], found[i])
		}
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes after the last value", len(rest))
	}
}

// corrupt returns frame with the payload byte at off flipped and the CRC
// left stale.
func corrupt(frame []byte, off int) []byte {
	c := append([]byte(nil), frame...)
	c[FrameHeaderSize+off] ^= 0x40
	return c
}

// reframe wraps payload in a fresh, correctly-CRC'd frame: malformed
// *payloads* must be rejected by the parsers, not masked by the CRC.
func reframe(payload []byte) []byte {
	frame := make([]byte, FrameHeaderSize, FrameHeaderSize+len(payload))
	frame = append(frame, payload...)
	binary.LittleEndian.PutUint32(frame[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, castagnoli))
	return frame
}

func TestReadFrameFaults(t *testing.T) {
	good := AppendGetRequest(nil, []byte("key"))

	t.Run("clean-eof", func(t *testing.T) {
		if _, err := readOne(t, nil, DefaultMaxFrame); err != io.EOF {
			t.Fatalf("empty stream: %v, want io.EOF", err)
		}
	})
	t.Run("torn-header", func(t *testing.T) {
		if _, err := readOne(t, good[:5], DefaultMaxFrame); err != io.ErrUnexpectedEOF {
			t.Fatalf("torn header: %v, want io.ErrUnexpectedEOF", err)
		}
	})
	t.Run("torn-payload", func(t *testing.T) {
		if _, err := readOne(t, good[:len(good)-2], DefaultMaxFrame); err != io.ErrUnexpectedEOF {
			t.Fatalf("torn payload: %v, want io.ErrUnexpectedEOF", err)
		}
	})
	t.Run("oversized", func(t *testing.T) {
		huge := make([]byte, FrameHeaderSize)
		binary.LittleEndian.PutUint32(huge, 1<<31)
		// The guard must trip on the length prefix alone — before any
		// allocation or payload read (there are no payload bytes here).
		if _, err := readOne(t, huge, DefaultMaxFrame); !errors.Is(err, ErrTooBig) {
			t.Fatalf("2 GiB length prefix: %v, want ErrTooBig", err)
		}
	})
	t.Run("at-limit", func(t *testing.T) {
		if _, err := readOne(t, good, len(good)-FrameHeaderSize); err != nil {
			t.Fatalf("frame exactly at maxFrame rejected: %v", err)
		}
		if _, err := readOne(t, good, len(good)-FrameHeaderSize-1); !errors.Is(err, ErrTooBig) {
			t.Fatalf("frame one over maxFrame: %v, want ErrTooBig", err)
		}
	})
	t.Run("crc", func(t *testing.T) {
		if _, err := readOne(t, corrupt(good, 1), DefaultMaxFrame); !errors.Is(err, ErrMalformed) {
			t.Fatalf("flipped payload byte: %v, want ErrMalformed", err)
		}
	})
}

func TestParseRequestFaults(t *testing.T) {
	var req Request
	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"unknown-op", []byte{99}},
		{"op-zero", []byte{0}},
		{"get-no-key", []byte{byte(OpGet)}},
		{"get-lying-len", append([]byte{byte(OpGet)}, 200, 'k')},
		{"set-missing-val", append([]byte{byte(OpSet)}, 1, 'k')},
		{"trailing", append(AppendGetRequestPayload(), 0xFF)},
		{"mget-truncated-count", []byte{byte(OpMGet), 0x80}},
		{"mget-missing-keys", []byte{byte(OpMGet), 3, 1, 'a'}},
		{"mget-absurd-count", append([]byte{byte(OpMGet)}, binary.AppendUvarint(nil, 1<<40)...)},
		{"stats-trailing", []byte{byte(OpStats), 'x'}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := ParseRequest(tc.payload, &req)
			if err == nil {
				t.Fatalf("malformed payload %x parsed", tc.payload)
			}
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("err = %v, want ErrMalformed", err)
			}
		})
	}
}

// AppendGetRequestPayload returns a valid GET payload (no frame header),
// for building trailing-bytes shapes.
func AppendGetRequestPayload() []byte {
	p := []byte{byte(OpGet)}
	p = binary.AppendUvarint(p, 1)
	return append(p, 'k')
}

func TestParseReplyFaults(t *testing.T) {
	var rep Reply
	cases := []struct {
		name    string
		payload []byte
		op      Op
	}{
		{"empty", nil, OpGet},
		{"unknown-status", []byte{9}, OpGet},
		{"get-ok-no-val", []byte{byte(StatusOK)}, OpGet},
		{"get-lying-len", []byte{byte(StatusOK), 200, 'v'}, OpGet},
		{"set-trailing", []byte{byte(StatusOK), 'x'}, OpSet},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := ParseReply(tc.payload, tc.op, &rep); !errors.Is(err, ErrMalformed) {
				t.Fatalf("err = %v, want ErrMalformed", err)
			}
		})
	}

	t.Run("mget-torn-values", func(t *testing.T) {
		payload := []byte{byte(StatusOK), 2, 1, 1, 'v'} // claims 2 keys, carries 1
		count, rest, err := ParseMGetReplyHeader(payload)
		if err != nil || count != 2 {
			t.Fatalf("header: count %d err %v", count, err)
		}
		if _, _, rest, err = NextMGetValue(rest); err != nil {
			t.Fatalf("first value: %v", err)
		}
		if _, _, _, err = NextMGetValue(rest); !errors.Is(err, ErrMalformed) {
			t.Fatalf("missing second value: %v, want ErrMalformed", err)
		}
	})
	t.Run("mget-bad-found-byte", func(t *testing.T) {
		if _, _, _, err := NextMGetValue([]byte{7}); !errors.Is(err, ErrMalformed) {
			t.Fatalf("found byte 7: %v, want ErrMalformed", err)
		}
	})
	t.Run("mget-absurd-count", func(t *testing.T) {
		payload := append([]byte{byte(StatusOK)}, binary.AppendUvarint(nil, 1<<40)...)
		if _, _, err := ParseMGetReplyHeader(reframePayload(payload)); !errors.Is(err, ErrMalformed) {
			t.Fatalf("2^40 count: %v, want ErrMalformed", err)
		}
	})
}

// reframePayload round-trips payload through a correctly-framed read so
// the parser (not the CRC) is what rejects it.
func reframePayload(payload []byte) []byte {
	br := bufio.NewReader(bytes.NewReader(reframe(payload)))
	p, _, err := ReadFrame(br, nil, DefaultMaxFrame)
	if err != nil {
		panic(err)
	}
	return p
}

func TestFrameBuffered(t *testing.T) {
	one := AppendGetRequest(nil, []byte("key"))
	two := AppendSetRequest(one, []byte("k"), []byte("v")) // one + a second frame

	br := bufio.NewReaderSize(bytes.NewReader(two), 64)
	if FrameBuffered(br) {
		t.Fatal("nothing read yet: no frame should be buffered")
	}
	if _, err := br.Peek(len(two)); err != nil { // force both frames into the buffer
		t.Fatal(err)
	}
	payload, _, err := ReadFrame(br, nil, DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	var req Request
	if err := ParseRequest(payload, &req); err != nil || req.Op != OpGet {
		t.Fatalf("first frame: op %v err %v", req.Op, err)
	}
	if !FrameBuffered(br) {
		t.Fatal("second frame fully buffered but FrameBuffered = false")
	}
	if _, _, err := ReadFrame(br, nil, DefaultMaxFrame); err != nil {
		t.Fatal(err)
	}
	if FrameBuffered(br) {
		t.Fatal("stream drained but FrameBuffered = true")
	}

	// A partial frame in the buffer must read as not-buffered: decoding
	// it would block the pipeline loop mid-burst.
	half := one[:len(one)-1]
	br = bufio.NewReaderSize(io.MultiReader(bytes.NewReader(half), neverReader{}), 64)
	br.Peek(len(half))
	if FrameBuffered(br) {
		t.Fatal("torn frame reported as buffered")
	}
}

// TestReadFrameAllocFree pins ReadFrame's //repro:noalloc promise where
// the syntactic noalloc analyzer cannot see: decoding a frame already in
// br's buffer into a buffer large enough for it allocates nothing. A
// header read through io.ReadFull into a local array escapes to the
// heap and costs one allocation per frame.
func TestReadFrameAllocFree(t *testing.T) {
	frame := AppendSetRequest(nil, []byte("key"), []byte("value"))
	br := bufio.NewReaderSize(cycleReader{frame: frame}, 4096)
	buf := make([]byte, 0, len(frame))
	allocs := testing.AllocsPerRun(1000, func() {
		var err error
		if _, buf, err = ReadFrame(br, buf, DefaultMaxFrame); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ReadFrame of a buffered frame: %v allocs/op, want 0", allocs)
	}
}

// cycleReader repeats frame forever, whole frames per Read.
type cycleReader struct{ frame []byte }

func (r cycleReader) Read(p []byte) (int, error) {
	n := 0
	for len(p)-n >= len(r.frame) {
		n += copy(p[n:], r.frame)
	}
	return n, nil
}

// neverReader blocks forever — any read from it fails the test by
// hanging, proving the caller never reads past the buffered bytes.
type neverReader struct{}

func (neverReader) Read([]byte) (int, error) { select {} }

func TestErrorTextMentionsShape(t *testing.T) {
	// Operators see these strings in served logs; each specific shape
	// must stay distinguishable from the generic ErrMalformed.
	var req Request
	err := ParseRequest([]byte{byte(OpMGet), 0x80}, &req)
	if err == nil || !strings.Contains(err.Error(), "shorter than") {
		t.Fatalf("truncation error reads %q", err)
	}
}
